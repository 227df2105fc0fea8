package fleet

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzFleetSpec feeds arbitrary bytes to the fleet scenario decoder
// behind /v1/simulate-fleet and dessim -fleet. No input may panic; the
// same bytes must decode to the same spec and the same error twice;
// and an accepted spec must pass Validate and either fail Build(1) or
// build one node per spec node. Nothing is simulated: the fuzzer spends
// its budget on the decode surface.
func FuzzFleetSpec(f *testing.F) {
	seeds := []string{
		`{"nodes": [{}], "arrivals": {"process": "poisson", "rate": 1e-8, "n": 4}}`,
		`{"nodes": [{"name": "a", "policy": "portfolio", "maxResident": 2},
		  {"name": "b", "platform": {"processors": 16, "cacheSize": 4e7, "ls": 0.17, "ll": 1, "alpha": 0.5}}],
		  "routing": "cache-affinity", "arrivals": {"process": "gamma", "shape": 0.5, "scale": 4e8, "burst": 2, "n": 6},
		  "seed": 7}`,
		`{"nodes": [{}, {}, {}], "routing": "power-of-two-choices",
		  "apps": [{"name": "A", "work": 1e10, "seq": 0.05, "freq": 0.5, "missRate": 1e-3, "refCache": 4e7}],
		  "arrivals": {"process": "replay", "replay": [{"time": 0}, {"time": 1e9}]}, "duration": 5e9}`,
		`{"nodes": [{"policy": "norepartition:DominantMinRatio"}], "routing": "join-shortest-queue",
		  "arrivals": {"process": "batch", "interval": 0, "size": 2, "n": 4}}`,
		`{"nodes": [], "arrivals": {"process": "poisson", "rate": 1e-8, "n": 4}}`,
		`{"nodes": [{"maxResident": -1}], "arrivals": {"process": "poisson", "rate": 1e-8, "n": 4}}`,
		`{"nodes": [{}], "routing": "round-robin", "arrivals": {"process": "poisson", "rate": 1e-8, "n": 4}}`,
		`{"nodes": [{}], "arrivals": {"process": "poisson", "rate": 1e-8, "n": 4}, "typo": 1}`,
		`{"nodes": [{}], "arrivals": {"process": "poisson", "rate": 1e-8, "n": 4}} {}`,
		`{}`,
		`null`,
		`[1,2`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func() (*Spec, string) {
			sp, err := DecodeSpec(bytes.NewReader(data))
			if err != nil {
				return sp, err.Error()
			}
			return sp, ""
		}
		sp, msg := decode()
		sp2, msg2 := decode()
		if msg != msg2 || !reflect.DeepEqual(sp, sp2) {
			t.Fatalf("decoding is not deterministic: %+v (%q) then %+v (%q)", sp, msg, sp2, msg2)
		}
		if msg != "" {
			return // rejected input: nothing more to check
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("accepted spec fails Validate: %v", err)
		}
		sc, err := sp.Build(1)
		if err != nil {
			return // Build may still reject, but never with a panic
		}
		if len(sc.Nodes) != len(sp.Nodes) {
			t.Fatalf("built %d nodes from a %d-node spec", len(sc.Nodes), len(sp.Nodes))
		}
	})
}
