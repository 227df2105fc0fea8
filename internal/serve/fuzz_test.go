package serve

import (
	"bytes"
	"reflect"
	"testing"

	repro "repro"
	"repro/internal/model"
)

// FuzzDecodeScenarios feeds arbitrary bytes to the scenario-stream
// decoder behind /v1/schedule, /v1/evaluate and cosched -batch. No
// input may panic, and decoding is deterministic: the same bytes must
// yield the same scenarios and the same error twice.
func FuzzDecodeScenarios(f *testing.F) {
	seeds := []string{
		`[{"apps": [{"name": "A", "work": 1e10, "seq": 0.05, "freq": 0.5, "missRate": 1e-3, "refCache": 4e7}]}]`,
		`{"apps": [{"name": "A", "work": 1e10, "seq": 0.05, "freq": 0.5, "missRate": 1e-3, "refCache": 4e7}]}
		 {"apps": [], "heuristics": ["Fair", "ZeroCache"], "seed": 3, "selector": true}`,
		`[{"platform": {"processors": 16, "cacheSize": 4e7, "ls": 0.17, "ll": 1, "alpha": 0.5},
		   "apps": [{"name": "B", "work": 0, "footprint": 1e6}], "heuristics": ["DominantMinRatio"]}]`,
		`[{"apps": [], "heuristics": ["NoSuchHeuristic"]}]`,
		`[{"apps": 5}]`,
		`[{"apps": []}] trailing`,
		`[]`,
		` `,
		`[`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	defaults := Defaults{Platform: model.TaihuLight(), Seed: 1}
	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func() ([]repro.PortfolioScenario, string) {
			var scs []repro.PortfolioScenario
			err := DecodeScenarios(bytes.NewReader(data), "fuzz input", defaults, func(sc repro.PortfolioScenario) bool {
				scs = append(scs, sc)
				return true
			})
			if err != nil {
				return scs, err.Error()
			}
			return scs, ""
		}
		scs, msg := decode()
		scs2, msg2 := decode()
		if msg != msg2 || !reflect.DeepEqual(scs, scs2) {
			t.Fatalf("decoding is not deterministic: %d scenarios (%q) then %d (%q)", len(scs), msg, len(scs2), msg2)
		}
	})
}
