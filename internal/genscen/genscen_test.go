package genscen

import (
	"reflect"
	"testing"

	"repro/internal/des"
	"repro/internal/model"
	"repro/internal/sched"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, f := range Families {
		for seed := uint64(0); seed < 8; seed++ {
			a, err := Generate(f, seed, Config{})
			if err != nil {
				t.Fatalf("%v seed %d: %v", f, seed, err)
			}
			b, err := Generate(f, seed, Config{})
			if err != nil {
				t.Fatalf("%v seed %d: %v", f, seed, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%v seed %d: two generations differ", f, seed)
			}
		}
	}
}

func TestGenerateValidatesAndSchedules(t *testing.T) {
	for _, f := range Families {
		for seed := uint64(0); seed < 16; seed++ {
			in, err := Generate(f, seed, Config{})
			if err != nil {
				t.Fatalf("%v seed %d: %v", f, seed, err)
			}
			if err := model.ValidateAll(in.Platform, in.Apps); err != nil {
				t.Fatalf("%v seed %d: invalid instance: %v", f, seed, err)
			}
			// Every instance must be schedulable by the reference
			// heuristic: the generator's job is to produce hard inputs,
			// not broken ones.
			s, err := sched.DominantMinRatio.Schedule(in.Platform, in.Apps, nil)
			if err != nil {
				t.Fatalf("%v seed %d: schedule: %v", f, seed, err)
			}
			if err := s.Validate(in.Platform, in.Apps); err != nil {
				t.Fatalf("%v seed %d: schedule invalid: %v", f, seed, err)
			}
		}
	}
}

func TestFamilyShapes(t *testing.T) {
	single, err := Generate(SingleApp, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Apps) != 1 {
		t.Errorf("single-app generated %d apps", len(single.Apps))
	}

	clones, err := Generate(EqualFootprint, 3, Config{MinApps: 4, MaxApps: 4})
	if err != nil {
		t.Fatal(err)
	}
	base := clones.Apps[0]
	for i, a := range clones.Apps[1:] {
		a.Name = base.Name
		if a != base {
			t.Errorf("clone %d differs from base", i+1)
		}
	}
	if base.Footprint <= 0 {
		t.Errorf("equal-footprint clones should have bounded footprints, got %v", base.Footprint)
	}

	zero, err := Generate(ZeroWork, 7, Config{MinApps: 6, MaxApps: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range zero.Apps {
		if a.SeqFraction != 0 {
			t.Errorf("zero-work app %s has nonzero sequential fraction", a.Name)
		}
		if a.Work >= 1e8 {
			t.Errorf("zero-work app %s has paper-scale work %v", a.Name, a.Work)
		}
	}
}

func TestParseFamilies(t *testing.T) {
	all, err := ParseFamilies("")
	if err != nil || len(all) != len(Families) {
		t.Fatalf("empty spec: %v, %d families", err, len(all))
	}
	two, err := ParseFamilies("zero-work, near-overflow")
	if err != nil || len(two) != 2 || two[0] != ZeroWork || two[1] != NearOverflow {
		t.Fatalf("two-family spec: %v %v", two, err)
	}
	if _, err := ParseFamilies("bogus"); err == nil {
		t.Fatal("bogus family accepted")
	}
	for _, f := range Families {
		got, err := ParseFamily(f.String())
		if err != nil || got != f {
			t.Errorf("round trip %v: got %v, %v", f, got, err)
		}
	}
}

func TestConfigBounds(t *testing.T) {
	if _, err := Generate(AmdahlMix, 1, Config{MinApps: 3, MaxApps: 2}); err == nil {
		t.Fatal("inverted bounds accepted")
	}
	in, err := Generate(AmdahlMix, 1, Config{MinApps: 5, MaxApps: 5})
	if err != nil || len(in.Apps) != 5 {
		t.Fatalf("fixed bounds: %d apps, %v", len(in.Apps), err)
	}
}

func TestStaticDESRuns(t *testing.T) {
	in, err := Generate(AmdahlMix, 11, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := in.StaticDES(sched.DominantMinRatio)
	if err != nil {
		t.Fatal(err)
	}
	res, err := des.Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(in.Apps) {
		t.Fatalf("simulated %d jobs for %d apps", len(res.Jobs), len(in.Apps))
	}
}

func TestOnlineSpecBuildsAndRuns(t *testing.T) {
	in, err := Generate(CacheBound, 5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := in.OnlineSpec("DominantMinRatio", 100)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := des.Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(in.Apps) {
		t.Fatalf("simulated %d jobs for %d apps", len(res.Jobs), len(in.Apps))
	}
	if _, err := in.OnlineSpec("DominantMinRatio", -1); err == nil {
		t.Fatal("negative span accepted")
	}
}
