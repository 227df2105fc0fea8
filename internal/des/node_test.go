package des

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/solve"
)

// TestNodeAccessors sanity-checks the router-facing state queries.
func TestNodeAccessors(t *testing.T) {
	pl := model.TaihuLight()
	apps := testApps(t, 2)
	pol, err := ParsePolicy("DominantMinRatio", 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Scenario{Platform: pl, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.JobsInSystem(); got != 0 {
		t.Errorf("idle node: JobsInSystem = %d, want 0", got)
	}
	if got := n.BacklogAt(0); got != 0 {
		t.Errorf("idle node: BacklogAt(0) = %v, want 0", got)
	}
	for i, a := range apps {
		if err := n.Inject(Arrival{Time: float64(i), App: a}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.AdvanceBefore(2); err != nil {
		t.Fatal(err)
	}
	if got := n.JobsInSystem(); got != 2 {
		t.Errorf("JobsInSystem = %d, want 2", got)
	}
	b2 := n.BacklogAt(2)
	if !(b2 > 0) {
		t.Errorf("BacklogAt(2) = %v, want > 0", b2)
	}
	if b3 := n.BacklogAt(3); b3 > b2 {
		t.Errorf("backlog grew with t: BacklogAt(3)=%v > BacklogAt(2)=%v", b3, b2)
	}
	visits := 0
	n.VisitUnfinished(func(job int, remaining float64) {
		visits++
		if job < 0 || !(remaining > 0) || remaining > 1 {
			t.Errorf("VisitUnfinished(%d, %v): malformed", job, remaining)
		}
	})
	if visits != 2 {
		t.Errorf("VisitUnfinished visited %d jobs, want 2", visits)
	}
	if _, err := n.Finish(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestNodeValidation covers construction and injection error paths.
func TestNodeValidation(t *testing.T) {
	pl := model.TaihuLight()
	pol, err := ParsePolicy("DominantMinRatio", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNode(Scenario{Platform: pl}); err == nil {
		t.Error("NewNode accepted a nil policy")
	}
	if _, err := NewNode(Scenario{Platform: model.Platform{}, Policy: pol}); err == nil {
		t.Error("NewNode accepted an invalid platform")
	}
	if _, err := NewNode(Scenario{Platform: pl, Policy: pol, MaxResident: -1}); err == nil {
		t.Error("NewNode accepted a negative residency cap")
	}

	n, err := NewNode(Scenario{Platform: pl, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	app := testApps(t, 1)[0]
	if err := n.Inject(Arrival{Time: math.NaN(), App: app}); err == nil {
		t.Error("Inject accepted a NaN arrival time")
	}
	if err := n.Inject(Arrival{Time: 5, App: app}); err != nil {
		t.Fatal(err)
	}
	// No event time compares below NaN: advancing to it must fail, not
	// run every pending event.
	if err := n.AdvanceBefore(math.NaN()); err == nil {
		t.Error("AdvanceBefore accepted a NaN time")
	}
	if got := n.JobsInSystem(); got != 1 || n.Now() != 0 {
		t.Errorf("rejected AdvanceBefore(NaN) moved the node: %d jobs in system at t=%v, want 1 at 0", got, n.Now())
	}
	if err := n.Inject(Arrival{Time: 4, App: app}); err == nil {
		t.Error("Inject accepted arrivals going backwards")
	}
	// Drain past the job's completion so the node clock runs ahead of
	// the last arrival time; an injection between the two must fail.
	exe := app.Exe(pl, pl.Processors, 1)
	if err := n.AdvanceBefore(5 + 2*exe); err != nil {
		t.Fatal(err)
	}
	if n.Now() <= 6 {
		t.Fatalf("node clock %v did not pass the completion", n.Now())
	}
	if err := n.Inject(Arrival{Time: 6, App: app}); err == nil {
		t.Error("Inject accepted an arrival behind the node clock")
	}
	if _, err := n.Finish(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := n.Inject(Arrival{Time: 99, App: app}); err == nil {
		t.Error("Inject accepted work on a finished node")
	}
	if err := n.AdvanceBefore(99); err == nil {
		t.Error("AdvanceBefore ran on a finished node")
	}
	if _, err := n.Finish(context.Background()); err == nil {
		t.Error("Finish ran twice")
	}
}

// TestNodeEmpty: a node that never received a job drains to an empty
// result.
func TestNodeEmpty(t *testing.T) {
	pol, err := ParsePolicy("DominantMinRatio", 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Scenario{Platform: model.TaihuLight(), Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Finish(context.Background())
	if err != nil {
		t.Fatalf("Finish on an empty node: %v", err)
	}
	if len(res.Jobs) != 0 || len(res.Events) != 0 || res.Makespan != 0 {
		t.Errorf("empty node produced a non-empty result: %+v", res)
	}
}

// TestNodeWalksMatchJobTable pins the node's O(unfinished) walks to a
// scan of the whole job table: after every AdvanceBefore and Inject of
// randomized streams, VisitUnfinished visits exactly the unfinished
// jobs, in ascending id order, with their remaining fractions, and
// JobsInSystem and BacklogAt equal the scan bit-for-bit. The streams
// mix same-instant arrivals (injected jobs the node has not processed
// yet), mid-gap advances and tiny jobs that finish on the
// stuck-completion path, under every policy kind and residency cap.
func TestNodeWalksMatchJobTable(t *testing.T) {
	pl := model.TaihuLight()
	tpl := testApps(t, 6)
	meanExe := 0.0
	for _, a := range tpl {
		meanExe += a.Exe(pl, pl.Processors, 1) / float64(len(tpl))
	}
	stuck := 0
	for _, spec := range []string{"portfolio", "DominantMinRatio", "norepartition"} {
		for _, maxRes := range []int{0, 1, 2, 4} {
			for seed := uint64(1); seed <= 20; seed++ {
				pol, err := ParsePolicy(spec, seed)
				if err != nil {
					t.Fatal(err)
				}
				n, err := NewNode(Scenario{Platform: pl, Policy: pol, MaxResident: maxRes})
				if err != nil {
					t.Fatal(err)
				}
				check := func(at float64, step string) {
					t.Helper()
					if msg := walkMismatch(n, at); msg != "" {
						t.Fatalf("%s cap=%d seed=%d, %s: %s", spec, maxRes, seed, step, msg)
					}
				}
				rng := solve.NewRNG(seed)
				now := 0.0
				for id := 0; id < 200; id++ {
					if rng.Float64() > 0.25 { // else: same instant as the last arrival
						now += -math.Log(1-rng.Float64()) * meanExe / 2
						mid := now - rng.Float64()*(now-n.Now())
						if err := n.AdvanceBefore(mid); err != nil {
							t.Fatal(err)
						}
						check(mid, "mid-gap advance")
					}
					if err := n.AdvanceBefore(now); err != nil {
						t.Fatal(err)
					}
					check(now, "advance")
					a := Arrival{Time: now, App: tpl[rng.Intn(len(tpl))]}
					a.App.Name = fmt.Sprintf("job%d", id)
					if rng.Float64() < 0.1 {
						a.App.Work *= 1e-30 // finishes within one ulp of the clock
					}
					if err := n.Inject(a); err != nil {
						t.Fatal(err)
					}
					check(now, "inject")
				}
				res, err := n.Finish(context.Background())
				if err != nil {
					t.Fatalf("%s cap=%d seed=%d: %v", spec, maxRes, seed, err)
				}
				for _, j := range res.Jobs {
					if j.Finish == j.Start {
						stuck++
					}
				}
			}
		}
	}
	if stuck == 0 {
		t.Error("no job finished on the stuck-completion path")
	}
}

// walkMismatch compares the node walks against a scan of every job the
// node ever received, returning "" when they agree bit-for-bit.
func walkMismatch(n *Node, at float64) string {
	e := n.e
	var ids []int
	backlog := 0.0
	for id := range e.jobs.len() {
		st := e.jobs.at(id)
		if st.done {
			continue
		}
		ids = append(ids, id)
		if st.procs > 0 && !math.IsInf(st.exe, 1) {
			if rem := (1-st.frac)*st.exe - (at - e.now); rem > 0 {
				backlog += rem
			}
			continue
		}
		backlog += (1 - st.frac) * st.dedicated
	}
	if got := n.JobsInSystem(); got != len(ids) {
		return fmt.Sprintf("JobsInSystem %d, scan %d", got, len(ids))
	}
	if got := n.BacklogAt(at); math.Float64bits(got) != math.Float64bits(backlog) {
		return fmt.Sprintf("BacklogAt %v, scan %v", got, backlog)
	}
	var msg string
	k := 0
	n.VisitUnfinished(func(job int, remaining float64) {
		switch {
		case msg != "":
		case k >= len(ids):
			msg = fmt.Sprintf("visited job %d past the %d unfinished jobs", job, len(ids))
		case job != ids[k]:
			msg = fmt.Sprintf("visit %d is job %d, scan has %d", k, job, ids[k])
		case math.Float64bits(remaining) != math.Float64bits(1-e.jobs.at(ids[k]).frac):
			msg = fmt.Sprintf("visit %d (job %d) remaining %v, scan %v", k, job, remaining, 1-e.jobs.at(ids[k]).frac)
		}
		k++
	})
	if msg == "" && k != len(ids) {
		msg = fmt.Sprintf("visited %d jobs, scan has %d unfinished", k, len(ids))
	}
	return msg
}
