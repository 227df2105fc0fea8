// Package des is a deterministic discrete-event simulator for *online*
// co-scheduling on cache-partitioned platforms. Where internal/sim
// executes a fixed schedule whose applications all start at t = 0, des
// models the headline use case of the paper — a shared node whose CAT
// partition must be recomputed as jobs come and go: jobs arrive over
// virtual time via pluggable arrival processes (Poisson, inhomogeneous
// Poisson via Lewis–Shedler thinning, Gamma bursts, fixed batches,
// trace replay), an event loop advances the clock, and on every arrival
// and completion an online Policy re-invokes the paper's heuristics (or
// races the whole portfolio of them) over the currently resident jobs,
// repartitioning processors and cache with each job's *remaining* work
// charged under the new shares.
//
// Within a constant allocation an Amdahl application's progress is
// linear in time, so the engine is exact rather than time-stepped: a
// node's only future events are its next pending arrival and each
// resident's predicted completion, the clock hops to the earliest of
// them, and every prediction is re-planned whenever the allocation
// changes. Arrivals reach a node in time order, so the loop needs no
// event queue. The whole simulation is a pure function of the
// scenario — single-threaded event loop, policies (each replan one
// race of their heuristics) running on it, and all randomness drawn
// from seeded solve.RNG streams — so a fixed seed yields an identical
// event log across runs.
//
// Every built-in arrival process is one stream behind the
// ArrivalProcess interface: it counts the jobs, stamps each through its
// JobFactory and ends at the last job or when the clock overflows, and
// the processes differ only in when each job arrives. A constructor
// that rejects its parameters returns a nil ArrivalProcess.
//
// The engine is a Node, fed one arrival at a time. Every online run
// drives Nodes through one arrival intake, EachArrival, which pulls the
// arrival process, validates it and applies the Duration window:
// Simulate drives one Node with it, and internal/fleet routes each
// arrival to one of many.
//
// A node hands every event it logs to one set of sinks, built when the
// node is: the event log (Result.Events), the Metrics' counters and
// gauges, and the Metrics' Tracer. The log is kept unless the scenario
// sets NoEvents, which callers that read only summaries do (the
// simulate endpoints of internal/serve, and cmd/dessim when it prints
// no events); metrics and traces see the same events either way.
//
// The degenerate scenario (every job at t = 0, a no-repartition policy)
// reproduces internal/sim's static execution bit-for-bit; the property
// tests rely on this cross-check. See cmd/dessim for the CLI surface.
package des

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/solve"
	"repro/internal/stats"
)

// doneTol mirrors internal/sim's completion tolerance: a job whose
// completed fraction reaches 1-doneTol at an event finishes there. Using
// the same constant (and the same progress arithmetic) is what makes the
// t=0/no-repartition case agree with sim.Execute bit-for-bit.
const doneTol = 1e-12

// budgetTol is the relative slack allowed on the processor and cache
// budgets of policy-returned allocations, matching sched's validation.
const budgetTol = 1e-6

// Scenario is one online co-scheduling problem.
type Scenario struct {
	Platform model.Platform
	// Arrivals produces the job stream. The process is consumed by the
	// run; build a fresh one per Simulate call.
	Arrivals ArrivalProcess
	// Policy decides the allocation of the resident set at every
	// arrival and completion.
	Policy Policy
	// Duration, when > 0, cuts off the arrival stream: the intake
	// (EachArrival) admits the half-open window [0, Duration) and
	// counts the rest in Result.Truncated. Already-admitted jobs always
	// run to completion.
	Duration float64
	// MaxResident, when > 0, bounds how many jobs share the node at
	// once; excess arrivals wait in a FIFO queue.
	MaxResident int
	// Metrics instruments the run (see NewMetrics). Nil disables all
	// observation; the event log and every result are bit-identical
	// either way.
	Metrics *Metrics
	// NoEvents, when set, keeps no event log: Result.Events stays nil,
	// while Metrics and its Tracer still see every event. Every other
	// result is bit-identical either way; a caller that reads only the
	// summaries skips the log's memory.
	NoEvents bool
}

// JobMetrics is the per-job outcome of an online run.
type JobMetrics struct {
	Job     int     // dense id in arrival order
	Name    string  // application name (factory-stamped)
	Arrival float64 // when the job entered the system
	Start   float64 // when it first held > 0 processors
	Finish  float64 // when it completed
	// Wait is Start - Arrival: time spent queued (in the FIFO or
	// resident with a zero allocation).
	Wait float64
	// Response is Finish - Arrival.
	Response float64
	// Stretch is Response divided by the job's execution time on the
	// dedicated machine (all processors, the whole cache) — the
	// classical slowdown metric of online scheduling.
	Stretch float64
}

// Result is the full outcome of an online simulation.
type Result struct {
	Jobs []JobMetrics
	// Events is the append-only event log, Seq-ordered; nil when the
	// scenario set NoEvents.
	Events []Event
	// Makespan is the completion time of the last job (virtual time at
	// which the system drained).
	Makespan float64
	// ProcessorTime integrates allocated processors over time;
	// ProcessorTime / (p × Makespan) is the machine utilization.
	ProcessorTime float64
	// CacheTime integrates the allocated cache fraction over time;
	// CacheTime / Makespan is the mean cache occupancy in [0, 1].
	CacheTime float64
	// QueueTime integrates the queue length (FIFO plus zero-allocation
	// residents) over time; QueueTime / Makespan is the mean queue
	// length.
	QueueTime float64
	// MaxQueue is the largest queue length observed.
	MaxQueue int
	// Repartitions counts policy invocations that changed the
	// allocation of at least one resident job.
	Repartitions int
	// Truncated counts arrivals discarded by the Duration cutoff.
	Truncated int
	// Replan is the policy's delta-rescheduling telemetry (zero for
	// policies that never take a fast path, e.g. NoRepartition).
	Replan ReplanStats
	// Wait, Response and Stretch summarize the per-job metrics.
	Wait, Response, Stretch stats.Summary
}

// Utilization returns ProcessorTime normalized by the machine capacity
// over the run, or 0 for an empty run.
func (r *Result) Utilization(pl model.Platform) float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.ProcessorTime / (pl.Processors * r.Makespan)
}

// MeanCacheOccupancy returns the time-averaged allocated cache fraction.
func (r *Result) MeanCacheOccupancy() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.CacheTime / r.Makespan
}

// MeanQueueLength returns the time-averaged queue length.
func (r *Result) MeanQueueLength() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.QueueTime / r.Makespan
}

// jobState tracks one job through the run.
type jobState struct {
	app       model.Application
	d         float64 // app.D(platform), fixed for the run: computed at arrival
	dedicated float64 // app.Exe(platform, every processor, the whole cache), likewise
	arrival   float64
	start     float64
	finish    float64
	frac      float64 // completed fraction of the original work
	procs     float64
	cache     float64
	// exe caches app.Exe(platform, procs, cache) for the current
	// allocation (+Inf while the job holds nothing). Exe is a pure
	// function of the allocation, so refreshing the cache exactly when
	// procs/cache change keeps every read bit-identical to recomputing
	// — it only spares the event loop an Amdahl/miss-rate evaluation
	// per resident per event.
	exe float64
	// due is the completion instant the last re-plan predicted for a
	// resident, +Inf when it predicted none (see planCompletions).
	due     float64
	id      int32 // the job's id: its index in the node's job table
	started bool
	done    bool
}

// jobTable holds a node's jobs by id, dense in arrival order. The jobs
// live in blocks that double from one job up to jobBlock and then stay
// at jobBlock, and an index of pointers finds them: growing the table
// allocates the next block and appends a pointer, but never moves a
// job; no block is larger than a slice doubled to the same length would
// be, and a long stream's table holds at most jobBlock-1 unused slots.
type jobTable struct {
	index []*jobState // index[id] is job id
	free  []jobState  // the newest block's unused slots
}

// jobBlock is the largest block's jobs.
const jobBlock = 64

// len returns how many jobs the table holds.
func (t *jobTable) len() int { return len(t.index) }

// at returns job id, which must be below len.
func (t *jobTable) at(id int) *jobState { return t.index[id] }

// grow appends a zero job and returns it.
func (t *jobTable) grow() *jobState {
	if len(t.free) == 0 {
		t.free = make([]jobState, min(max(len(t.index), 1), jobBlock))
	}
	st := &t.free[0]
	t.free = t.free[1:]
	t.index = append(t.index, st)
	return st
}

// engine is the event loop of one Node: its jobs and the Result it
// accumulates. The job table is the whole event state: the next event
// is the earlier of the next pending arrival, jobs[arrived], and the
// smallest due of the residents (see nextEvent).
//
// Arrivals are processed in job-id order (they are injected in time
// order), the FIFO admits oldest first, and an arrival is made resident
// directly only when the FIFO is empty (see admitOrQueue). The
// unfinished jobs therefore always split into two runs of ascending
// ids: residents, then every job from fifo on — the FIFO waiters
// [fifo, arrived) followed by the injected arrivals not yet processed
// [arrived, jobs.len()).
type engine struct {
	cfg       Scenario
	jobs      jobTable
	residents []*jobState // the jobs currently on the node, ascending by id
	fifo      int         // oldest FIFO waiter: jobs [fifo, arrived) wait for a slot
	arrived   int         // arrivals processed: jobs [arrived, jobs.len()) are pending
	now       float64
	res       *Result
	queueLen  int // current queue length (FIFO + zero-alloc residents)

	// sinks consume every logged event, in order: the event log's
	// appender unless cfg.NoEvents, the metrics' counters and gauges,
	// and the metrics' Tracer, whichever NewNode found configured.
	sinks []func(Event)
	seq   int // events logged so far

	// Recycled buffers: the policy's resident view and the re-plan's
	// stuck list. Both are rebuilt from live state at every use, so
	// recycling cannot change results.
	view  []Resident
	stuck []*jobState
}

// Simulate runs the scenario to completion: until the arrival stream is
// exhausted (or cut off by Duration) and every admitted job has
// finished. It returns an error for invalid scenarios, for policies
// that overrun the resource budgets, and for deadlocks (resident jobs
// that can never finish because no future event would grant them
// processors).
func Simulate(sc Scenario) (*Result, error) {
	return SimulateContext(context.Background(), sc)
}

// ctxCheckEvery is how many arrivals EachArrival pulls, and how many
// event steps Node.Finish takes, between context polls. Every arrival
// or step already costs a walk of the residents and usually a policy
// invocation, so 8 keeps the poll overhead unmeasurable while bounding
// the cancellation latency to a handful of events.
const ctxCheckEvery = 8

// SimulateContext is Simulate under a context: a Node driven by the
// arrival intake. EachArrival hands it every admitted arrival, which it
// advances the node to and injects, and Node.Finish drains the node.
// Both poll ctx and abandon the run with ctx.Err() once it is
// cancelled; the partially-advanced node is simply dropped (it is
// per-call, so no pooled state can leak), and a subsequent call with a
// live context is bit-identical to an uncancelled run.
func SimulateContext(ctx context.Context, sc Scenario) (*Result, error) {
	n, err := NewNode(sc)
	if err != nil {
		return nil, err
	}
	truncated, err := EachArrival(ctx, sc.Arrivals, sc.Duration, func(a Arrival) error {
		if err := n.AdvanceBefore(a.Time); err != nil {
			return err
		}
		return n.Inject(a)
	})
	if err != nil {
		return nil, err
	}
	res, err := n.Finish(ctx)
	if err != nil {
		return nil, err
	}
	res.Truncated = truncated
	return res, nil
}

// ReplanReporter is implemented by policies that expose
// delta-rescheduling telemetry (HeuristicPolicy, PortfolioPolicy).
// Node.Finish type-asserts the node's policy against it and copies the
// stats into Result.Replan; policies without a fast path
// (NoRepartition, custom policies) simply leave Replan zero.
type ReplanReporter interface {
	ReplanStats() ReplanStats
}

// EachArrival is the arrival intake of every online run, single-node
// and fleet alike. It pulls proc to exhaustion and calls f, in stream
// order, with each arrival in the half-open window [0, duration)
// (duration 0 admits the whole stream), and returns how many arrivals
// the window discarded, draining the stream past the window to count
// them all. It fails on an arrival that is invalid or goes backwards
// (the built-in constructors validate their streams, so only a
// misbehaving custom process trips this), on a stream that admits
// nothing, and on an error from f. ctx is polled every ctxCheckEvery
// arrivals and its error returned unwrapped.
func EachArrival(ctx context.Context, proc ArrivalProcess, duration float64, f func(Arrival) error) (truncated int, err error) {
	if proc == nil {
		return 0, fmt.Errorf("des: scenario needs an arrival process")
	}
	if math.IsNaN(duration) || math.IsInf(duration, 0) || duration < 0 {
		return 0, fmt.Errorf("des: duration must be finite and >= 0, got %v", duration)
	}
	admitted, last := 0, 0.0
	for pulled := 0; ; pulled++ {
		if pulled%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		a, ok := proc.Next()
		if !ok {
			break
		}
		if err := validateArrival(a); err != nil {
			return 0, fmt.Errorf("des: arrival process %s emitted an invalid arrival: %w", proc.Name(), err)
		}
		if a.Time < last {
			return 0, fmt.Errorf("des: arrival process %s went backwards: t=%g after t=%g", proc.Name(), a.Time, last)
		}
		last = a.Time
		if duration > 0 && a.Time >= duration {
			truncated++
			continue
		}
		if err := f(a); err != nil {
			return 0, err
		}
		admitted++
	}
	if admitted == 0 {
		return 0, fmt.Errorf("des: arrival process produced no arrivals within the duration")
	}
	return truncated, nil
}

// addJob records a validated arrival as a new, pending job. The job's
// model constants on the platform are computed here, once, for every
// later Exe evaluation to read.
func (e *engine) addJob(a Arrival) {
	pl := e.cfg.Platform
	d := a.App.D(pl)
	*e.jobs.grow() = jobState{
		id:  int32(e.jobs.len() - 1),
		app: a.App, d: d, dedicated: a.App.ExeD(pl, d, pl.Processors, 1),
		arrival: a.Time, start: math.NaN(), finish: math.NaN(), exe: math.Inf(1), due: math.Inf(1),
	}
}

// validateArrival rejects non-finite or negative arrival times and
// invalid application profiles before they can poison the simulation.
func validateArrival(a Arrival) error {
	if math.IsNaN(a.Time) || math.IsInf(a.Time, 0) || a.Time < 0 {
		return fmt.Errorf("des: arrival time %v is not finite and >= 0", a.Time)
	}
	return a.App.Validate()
}

// runBefore steps the engine through every event strictly before t,
// polling ctx every ctxCheckEvery steps.
func (e *engine) runBefore(ctx context.Context, t float64) error {
	for steps := 0; ; steps++ {
		next := e.nextEvent()
		if !(next < t) {
			return nil
		}
		if steps%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := e.step(next); err != nil {
			return err
		}
	}
}

// nextEvent returns the instant of the engine's next event: the earlier
// of its next pending arrival and its residents' earliest predicted
// completion, or +Inf when it has neither.
func (e *engine) nextEvent() float64 {
	t := math.Inf(1)
	if e.arrived < e.jobs.len() {
		t = e.jobs.at(e.arrived).arrival
	}
	for _, st := range e.residents {
		t = min(t, st.due)
	}
	return t
}

// step processes every event at t, the instant nextEvent returned: the
// completions predicted for t and the pending arrivals at t.
func (e *engine) step(t float64) error {
	// Advance progress to t with the same arithmetic as internal/sim:
	// frac += dt/exe per running job, finishing every job that reaches
	// 1-doneTol.
	changed := e.advance(t)

	// Completions freed residency slots; admit FIFO waiters, then
	// process every arrival at t in id order. Callers advance a node
	// strictly before an arrival instant (AdvanceBefore) and then inject
	// it, so simultaneous arrivals (e.g. a size-k batch process) see
	// exactly one policy invocation, like internal/sim's single t=0
	// allocation.
	changed = e.admitQueued() || changed
	for e.arrived < e.jobs.len() && e.jobs.at(e.arrived).arrival == t {
		changed = e.admitOrQueue(e.arrived) || changed
	}

	// Delta-rescheduling short-circuit: a step that neither finished nor
	// admitted anything (an arrival parked in the FIFO of a saturated
	// node) leaves every resident's (frac-at-prediction, allocation)
	// state exactly as its due assumed, so the predictions are still
	// the ones a fresh re-plan would derive — skipping the policy call
	// AND the re-plan is free. The one exception is a resident due at t
	// that fell an ulp short of the tolerance: its prediction is spent,
	// so a re-plan must reissue it even though no visible state changed.
	replan := changed
	for i := 0; !replan && i < len(e.residents); i++ {
		replan = e.residents[i].due == t
	}
	if !replan {
		e.recountQueue()
		return nil
	}
	if changed {
		if err := e.repartition(); err != nil {
			return err
		}
	}
	// Re-plan completions from the current state at every stop. This is
	// what keeps the surviving timeline bit-identical to internal/sim's
	// loop (which recomputes the next completion fresh at every event):
	// predictions always derive from (now, frac, exe) exactly as sim's
	// nextT does. A job whose remaining time underflows the clock (its
	// predicted completion cannot advance virtual time) is finished in
	// place — the float-time analogue of sim's completion tolerance —
	// and the survivors are repartitioned again at this instant.
	for {
		stuck := e.planCompletions()
		if len(stuck) == 0 {
			break
		}
		for _, st := range stuck {
			st.frac = 1
			st.done = true
			st.finish = e.now
			st.procs, st.cache, st.exe = 0, 0, math.Inf(1)
			e.log(EventFinish, int(st.id))
		}
		e.pruneResidents()
		e.admitQueued()
		if err := e.repartition(); err != nil {
			return err
		}
	}
	e.recountQueue()
	return nil
}

// advance moves every resident job forward from e.now to t, crediting
// progress and finishing jobs that reach the completion tolerance.
// Returns whether any job finished.
func (e *engine) advance(t float64) bool {
	dt := t - e.now
	if dt < 0 {
		// nextEvent never precedes the clock; a negative step is impossible.
		panic(fmt.Sprintf("des: time went backwards: %g -> %g", e.now, t))
	}
	e.now = t
	e.res.QueueTime += float64(e.queueLen) * dt
	finished := false
	for _, st := range e.residents {
		if st.done {
			continue
		}
		e.res.ProcessorTime += st.procs * dt
		e.res.CacheTime += st.cache * dt
		if !math.IsInf(st.exe, 1) {
			st.frac += dt / st.exe
		}
		if st.frac >= 1-doneTol {
			st.frac = 1
			st.done = true
			st.finish = t
			st.procs, st.cache, st.exe = 0, 0, math.Inf(1)
			finished = true
			e.log(EventFinish, int(st.id))
		}
	}
	if finished {
		e.pruneResidents()
	}
	return finished
}

// pruneResidents drops finished jobs from the resident list, keeping
// admission order.
func (e *engine) pruneResidents() {
	live := e.residents[:0]
	for _, st := range e.residents {
		if !st.done {
			live = append(live, st)
		}
	}
	e.residents = live
}

// admitOrQueue processes the arrival of job id (the next in id order)
// and makes it resident if a slot is free, else leaves it at the tail
// of the FIFO. Returns whether the resident set changed. A slot is
// free only when the FIFO is empty: admitQueued runs first at every
// step, and the resident set does not shrink while a step admits.
func (e *engine) admitOrQueue(id int) bool {
	e.arrived++
	if e.cfg.MaxResident > 0 && len(e.residents) >= e.cfg.MaxResident {
		e.log(EventArrival, id)
		return false
	}
	e.residents = append(e.residents, e.jobs.at(id))
	e.fifo++
	e.log(EventArrival, id)
	return true
}

// admitQueued promotes FIFO waiters into freed residency slots, oldest
// first. Returns whether anything was admitted.
func (e *engine) admitQueued() bool {
	admitted := false
	for e.fifo < e.arrived && (e.cfg.MaxResident == 0 || len(e.residents) < e.cfg.MaxResident) {
		e.residents = append(e.residents, e.jobs.at(e.fifo))
		e.fifo++
		admitted = true
	}
	return admitted
}

// repartition invokes the policy over the resident set and applies the
// returned allocation after validating it against the platform budgets.
func (e *engine) repartition() error {
	if len(e.residents) == 0 {
		return nil
	}
	view := e.view[:0]
	if cap(view) < len(e.residents) {
		view = make([]Resident, 0, len(e.residents))
	}
	view = view[:len(e.residents)]
	e.view = view
	for i, st := range e.residents {
		view[i] = Resident{
			Job:       int(st.id),
			App:       st.app,
			Remaining: 1 - st.frac,
			Assign:    sched.Assignment{Processors: st.procs, CacheShare: st.cache},
			Started:   st.started,
		}
	}
	m := e.cfg.Metrics
	var allocStart time.Time
	if m != nil {
		allocStart = time.Now()
	}
	asg, err := e.cfg.Policy.Allocate(e.cfg.Platform, view)
	if m != nil {
		m.allocSeconds.Observe(time.Since(allocStart).Seconds())
		m.Tracer.Span("allocate", e.cfg.Policy.Name(), e.now, -1, allocStart)
	}
	if err != nil {
		return fmt.Errorf("des: policy %s at t=%g: %w", e.cfg.Policy.Name(), e.now, err)
	}
	if len(asg) != len(view) {
		return fmt.Errorf("des: policy %s returned %d assignments for %d resident jobs", e.cfg.Policy.Name(), len(asg), len(view))
	}
	var sumP, sumX solve.Kahan
	for i, a := range asg {
		if a.Processors < 0 || math.IsNaN(a.Processors) || math.IsInf(a.Processors, 0) {
			return fmt.Errorf("des: policy %s assigned invalid processors %v to job %d", e.cfg.Policy.Name(), a.Processors, view[i].Job)
		}
		// The share bound gets the same budgetTol slack as the sum
		// checks below: heuristic share arithmetic (normalization,
		// footprint caps) can land an ulp above 1, and rejecting that
		// while tolerating the same slack on the budget would make the
		// engine stricter than the schedules it replays.
		if a.CacheShare < 0 || a.CacheShare > 1+budgetTol || math.IsNaN(a.CacheShare) {
			return fmt.Errorf("des: policy %s assigned invalid cache share %v to job %d", e.cfg.Policy.Name(), a.CacheShare, view[i].Job)
		}
		sumP.Add(a.Processors)
		sumX.Add(a.CacheShare)
	}
	if sumP.Sum() > e.cfg.Platform.Processors*(1+budgetTol) {
		return fmt.Errorf("des: policy %s exceeded the processor budget: %v > %v", e.cfg.Policy.Name(), sumP.Sum(), e.cfg.Platform.Processors)
	}
	if sumX.Sum() > 1+budgetTol {
		return fmt.Errorf("des: policy %s exceeded the cache budget: %v > 1", e.cfg.Policy.Name(), sumX.Sum())
	}
	applied := false
	for i, st := range e.residents {
		if st.procs != asg[i].Processors || st.cache != asg[i].CacheShare {
			applied = true
			st.procs, st.cache = asg[i].Processors, asg[i].CacheShare
			st.exe = st.app.ExeD(e.cfg.Platform, st.d, st.procs, st.cache)
		}
		if !st.started && st.procs > 0 {
			st.started = true
			st.start = e.now
			e.log(EventStart, int(st.id))
		}
	}
	// Only allocation *changes* count as repartitions; a frozen policy
	// confirming the status quo leaves no trace in the log.
	if applied {
		e.res.Repartitions++
		e.log(EventRepartition, -1)
	}
	return nil
}

// planCompletions re-plans every resident job's completion instant,
// its due, from the current state, replacing all previous predictions.
// Jobs whose predicted completion cannot advance the clock (remaining
// time below one ulp of the current virtual time) are returned as stuck
// instead, so the caller can finish them and avoid a zero-dt livelock.
func (e *engine) planCompletions() (stuck []*jobState) {
	stuck = e.stuck[:0]
	for _, st := range e.residents {
		st.due = math.Inf(1)
		if math.IsInf(st.exe, 1) {
			continue // zero allocation: waits for a future repartition
		}
		t := e.now + (1-st.frac)*st.exe
		if math.IsInf(t, 1) || math.IsNaN(t) {
			// Overflowed the clock (extreme work/latency inputs): the
			// job cannot finish in representable virtual time. Leave it
			// event-less so the run ends in a clean deadlock error
			// instead of propagating non-finite time into the metrics.
			continue
		}
		if !(t > e.now) {
			stuck = append(stuck, st)
			continue
		}
		st.due = t
	}
	// Hand the scratch back for the next re-plan; the returned slice
	// stays valid because the caller consumes it before the next call.
	e.stuck = stuck
	return stuck
}

// recountQueue refreshes the current queue length: FIFO waiters plus
// residents holding no processors.
func (e *engine) recountQueue() {
	n := e.arrived - e.fifo
	for _, st := range e.residents {
		if st.procs == 0 {
			n++
		}
	}
	e.queueLen = n
	if n > e.res.MaxQueue {
		e.res.MaxQueue = n
	}
}

// log hands one event to every sink, stamping the occupancy after the
// event: Resident counts jobs holding processors, Queued the FIFO
// waiters plus zero-allocation residents — the same partition the
// queue-length metric integrates, so statistics derived from the event
// stream agree with Result.MeanQueueLength. Jobs marked done inside an
// advance sweep are excluded even before the resident list is pruned.
func (e *engine) log(kind EventKind, job int) {
	if len(e.sinks) == 0 {
		return
	}
	running, parked := 0, 0
	for _, st := range e.residents {
		if !st.done {
			if st.procs > 0 {
				running++
			} else {
				parked++
			}
		}
	}
	ev := Event{
		Seq:      e.seq,
		Time:     e.now,
		Kind:     kind,
		Job:      job,
		Resident: running,
		Queued:   e.arrived - e.fifo + parked,
	}
	if job >= 0 {
		ev.Name = e.jobs.at(job).app.Name
	}
	e.seq++
	for _, sink := range e.sinks {
		sink(ev)
	}
}

// record is the event log's sink.
func (e *engine) record(ev Event) { e.res.Events = append(e.res.Events, ev) }

// finalize computes per-job metrics and their summaries.
func (e *engine) finalize() {
	e.res.Jobs = make([]JobMetrics, e.jobs.len())
	for id := range e.jobs.len() {
		st := e.jobs.at(id)
		m := JobMetrics{
			Job:      id,
			Name:     st.app.Name,
			Arrival:  st.arrival,
			Start:    st.start,
			Finish:   st.finish,
			Wait:     st.start - st.arrival,
			Response: st.finish - st.arrival,
		}
		if st.dedicated > 0 {
			m.Stretch = m.Response / st.dedicated
		}
		e.res.Jobs[id] = m
		if st.finish > e.res.Makespan {
			e.res.Makespan = st.finish
		}
		if om := e.cfg.Metrics; om != nil {
			om.waitHist.Observe(m.Wait)
			om.stretchHist.Observe(m.Stretch)
		}
	}
	// Summaries, each over one sample buffer refilled from the per-job
	// metrics: errors impossible for the non-empty sample (Simulate
	// rejects empty arrival streams).
	sample := make([]float64, len(e.res.Jobs))
	summarize := func(of func(*JobMetrics) float64) stats.Summary {
		for i := range e.res.Jobs {
			sample[i] = of(&e.res.Jobs[i])
		}
		s, _ := stats.Summarize(sample)
		return s
	}
	e.res.Wait = summarize(func(m *JobMetrics) float64 { return m.Wait })
	e.res.Response = summarize(func(m *JobMetrics) float64 { return m.Response })
	e.res.Stretch = summarize(func(m *JobMetrics) float64 { return m.Stretch })
}
