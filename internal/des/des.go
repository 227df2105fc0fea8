// Package des is a deterministic discrete-event simulator for *online*
// co-scheduling on cache-partitioned platforms. Where internal/sim
// executes a fixed schedule whose applications all start at t = 0, des
// models the headline use case of the paper — a shared node whose CAT
// partition must be recomputed as jobs come and go: jobs arrive over
// virtual time via pluggable arrival processes (Poisson, inhomogeneous
// Poisson via Lewis–Shedler thinning, Gamma bursts, fixed batches,
// trace replay), an event loop with a heap-ordered queue advances the
// clock, and on every arrival and completion an online Policy re-invokes
// the paper's heuristics (or the portfolio engine) over the currently
// resident jobs, repartitioning processors and cache with each job's
// *remaining* work charged under the new shares.
//
// Within a constant allocation an Amdahl application's progress is
// linear in time, so the engine is exact rather than time-stepped: the
// clock hops from event to event, and completion predictions are
// re-planned (heap events are generation-invalidated) whenever the
// allocation changes. The whole simulation is a pure function of the
// scenario — single-threaded event loop, all randomness drawn from
// seeded solve.RNG streams, and policy parallelism (the portfolio
// engine) already bit-deterministic — so a fixed seed yields an
// identical event log across runs and worker counts.
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
	// Duration, when > 0, cuts off the arrival stream. The admission
	// window is the half-open interval [0, Duration): an arrival at
	// exactly t == Duration is discarded (counted in Result.Truncated),
	// regardless of which arrival process produced it. Already-admitted
	// jobs always run to completion.
	Duration float64
	// MaxResident, when > 0, bounds how many jobs share the node at
	// once; excess arrivals wait in a FIFO queue.
	MaxResident int
	// Metrics instruments the run (see NewMetrics). Nil disables all
	// observation; the event log and every result are bit-identical
	// either way.
	Metrics *Metrics
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
	Jobs   []JobMetrics
	Events []Event // append-only log, Seq-ordered
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
	exe     float64
	started bool
	done    bool
}

// engine is the mutable state of one Simulate call.
type engine struct {
	sc          Scenario
	pq          eventQueue
	jobs        []jobState
	residents   []int // job ids currently on the node, admission order
	fifo        []int // job ids waiting for a residency slot
	now         float64
	gen         uint64 // current completion-event generation
	res         *Result
	queueLen    int     // current queue length (fifo + zero-alloc residents)
	lastArrival float64 // last time pulled from the process, for monotonicity
	exhausted   bool

	// Recycled per-event scratch: the current event batch, the policy's
	// resident view, and the re-plan's stuck list. All are rebuilt from
	// live state at every use, so recycling cannot change results.
	batch []qEvent
	view  []Resident
	stuck []int
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

// ctxCheckEvery is how many event-loop iterations pass between context
// polls in SimulateContext. Every iteration already costs at least one
// policy invocation or heap operation, so 8 keeps the poll overhead
// unmeasurable while bounding the cancellation latency to a handful of
// events.
const ctxCheckEvery = 8

// SimulateContext is Simulate under a context. The event loop polls ctx
// every ctxCheckEvery events and abandons the run with ctx.Err() once
// it is cancelled; the partially-advanced simulation state is simply
// dropped (the engine is per-call, so no pooled state can leak), and a
// subsequent call with a live context is bit-identical to an
// uncancelled run.
func SimulateContext(ctx context.Context, sc Scenario) (*Result, error) {
	if err := sc.Platform.Validate(); err != nil {
		return nil, err
	}
	if sc.Arrivals == nil {
		return nil, fmt.Errorf("des: scenario needs an arrival process")
	}
	if sc.Policy == nil {
		return nil, fmt.Errorf("des: scenario needs an online policy")
	}
	if math.IsNaN(sc.Duration) || math.IsInf(sc.Duration, 0) || sc.Duration < 0 {
		return nil, fmt.Errorf("des: duration must be finite and >= 0, got %v", sc.Duration)
	}
	if sc.MaxResident < 0 {
		return nil, fmt.Errorf("des: max resident must be >= 0, got %d", sc.MaxResident)
	}
	e := &engine{sc: sc, res: &Result{}}
	if err := e.pullArrival(); err != nil {
		return nil, err
	}
	if e.pq.Len() == 0 {
		return nil, fmt.Errorf("des: arrival process produced no arrivals within the duration")
	}
	for steps := 0; e.pq.Len() > 0; steps++ {
		if steps%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := e.step(); err != nil {
			return nil, err
		}
	}
	for id := range e.jobs {
		if !e.jobs[id].done {
			return nil, fmt.Errorf("des: deadlock: job %d (%s) can never finish (zero allocation with no pending events)", id, e.jobs[id].app.Name)
		}
	}
	e.finalize()
	if tp, ok := sc.Policy.(ReplanReporter); ok {
		e.res.Replan = tp.ReplanStats()
	}
	if m := sc.Metrics; m != nil {
		m.simulations.Inc()
		m.jobs.Add(uint64(len(e.res.Jobs)))
		m.observeReplan(e.res.Replan)
	}
	return e.res, nil
}

// ReplanReporter is implemented by policies that expose
// delta-rescheduling telemetry (HeuristicPolicy, PortfolioPolicy). The
// engine type-asserts the scenario's policy against it after a run and
// copies the stats into Result.Replan; policies without a fast path
// (NoRepartition, custom policies) simply leave Replan zero.
type ReplanReporter interface {
	ReplanStats() ReplanStats
}

// pullArrival fetches the next arrival from the process (unless
// exhausted or beyond the Duration cutoff), registers the job and
// queues its arrival event. A process that violates its contract —
// non-finite times, invalid applications, or times going backwards —
// fails the run with an error; the built-in constructors validate
// their streams, so this only fires for misbehaving custom processes.
func (e *engine) pullArrival() error {
	if e.exhausted {
		return nil
	}
	for {
		a, ok := e.sc.Arrivals.Next()
		if !ok {
			e.exhausted = true
			return nil
		}
		if err := validateArrival(a); err != nil {
			return fmt.Errorf("des: arrival process %s emitted an invalid arrival: %w", e.sc.Arrivals.Name(), err)
		}
		if a.Time < e.lastArrival {
			return fmt.Errorf("des: arrival process %s went backwards: t=%g after t=%g", e.sc.Arrivals.Name(), a.Time, e.lastArrival)
		}
		e.lastArrival = a.Time
		// Half-open admission window [0, Duration): the boundary arrival
		// is truncated, for every arrival process alike.
		if e.sc.Duration > 0 && a.Time >= e.sc.Duration {
			e.res.Truncated++
			continue // keep draining to count every truncated arrival
		}
		e.addJob(a)
		return nil
	}
}

// addJob records a validated arrival as a new job and queues its
// arrival event. The job's model constants on the platform are
// computed here, once, for every later Exe evaluation to read.
func (e *engine) addJob(a Arrival) {
	pl := e.sc.Platform
	d := a.App.D(pl)
	e.jobs = append(e.jobs, jobState{
		app: a.App, d: d, dedicated: a.App.ExeD(pl, d, pl.Processors, 1),
		arrival: a.Time, start: math.NaN(), finish: math.NaN(), exe: math.Inf(1),
	})
	e.pq.push(qEvent{time: a.Time, kind: qArrival, job: len(e.jobs) - 1})
}

// validateArrival rejects non-finite or negative arrival times and
// invalid application profiles before they can poison the simulation.
func validateArrival(a Arrival) error {
	if math.IsNaN(a.Time) || math.IsInf(a.Time, 0) || a.Time < 0 {
		return fmt.Errorf("des: arrival time %v is not finite and >= 0", a.Time)
	}
	return a.App.Validate()
}

// step processes the earliest event batch: every valid event at the
// minimum pending time. Stale completion events (superseded by a
// re-plan) are discarded without touching the clock, so they never
// perturb the progress arithmetic.
func (e *engine) step() error {
	batch := e.batch[:0]
	var t float64
	for e.pq.Len() > 0 {
		ev := e.pq.pop()
		if e.stale(ev) {
			continue
		}
		batch = append(batch, ev)
		t = ev.time
		break
	}
	if len(batch) == 0 {
		e.batch = batch
		return nil
	}
	batch = e.absorbAt(t, batch)

	// Advance progress to t with the same arithmetic as internal/sim:
	// frac += dt/exe per running job, finishing every job that reaches
	// 1-doneTol.
	changed := e.advance(t)

	// Completions freed residency slots; admit FIFO waiters, then
	// process this batch's arrivals. Pulling an arrival may reveal
	// another one at the same instant (e.g. a size-k batch process):
	// absorb those into the current batch so simultaneous arrivals see
	// exactly one policy invocation, like internal/sim's single t=0
	// allocation.
	changed = e.admitQueued() || changed
	for i := 0; i < len(batch); i++ {
		if batch[i].kind != qArrival {
			continue
		}
		if e.admitOrQueue(batch[i].job) {
			changed = true
		}
		if err := e.pullArrival(); err != nil {
			return err
		}
		batch = e.absorbAt(t, batch)
	}

	// Delta-rescheduling short-circuit: a step that neither finished nor
	// admitted anything (an arrival parked in the FIFO of a saturated
	// node) leaves every resident's (frac-at-prediction, allocation)
	// state exactly as the pending completion events assumed, so the
	// predictions in the heap are still the ones a fresh re-plan would
	// derive — skipping the policy call AND the re-plan is free. The one
	// exception is a consumed completion event whose job fell an ulp
	// short of the tolerance: its prediction is spent, so a re-plan must
	// reissue it even though no visible state changed.
	replan := changed
	if !replan {
		for _, ev := range batch {
			if ev.kind == qCompletion {
				replan = true
				break
			}
		}
	}
	e.batch = batch[:0]
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
		for _, id := range stuck {
			st := &e.jobs[id]
			st.frac = 1
			st.done = true
			st.finish = e.now
			st.procs, st.cache, st.exe = 0, 0, math.Inf(1)
			e.log(EventFinish, id)
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

// stale reports whether a pending event was superseded by a later
// completion re-plan; stale events are discarded without touching the
// clock, so they never perturb the progress arithmetic.
func (e *engine) stale(ev qEvent) bool {
	return ev.kind == qCompletion && ev.gen != e.gen
}

// absorbAt appends every still-valid event scheduled at exactly t to
// the batch.
func (e *engine) absorbAt(t float64, batch []qEvent) []qEvent {
	for e.pq.Len() > 0 && e.pq.peekTime() == t {
		ev := e.pq.pop()
		if !e.stale(ev) {
			batch = append(batch, ev)
		}
	}
	return batch
}

// advance moves every resident job forward from e.now to t, crediting
// progress and finishing jobs that reach the completion tolerance.
// Returns whether any job finished.
func (e *engine) advance(t float64) bool {
	dt := t - e.now
	if dt < 0 {
		// The heap orders events by time; a negative step is impossible.
		panic(fmt.Sprintf("des: time went backwards: %g -> %g", e.now, t))
	}
	e.now = t
	e.res.QueueTime += float64(e.queueLen) * dt
	finished := false
	for _, id := range e.residents {
		st := &e.jobs[id]
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
			e.log(EventFinish, id)
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
	for _, id := range e.residents {
		if !e.jobs[id].done {
			live = append(live, id)
		}
	}
	e.residents = live
}

// admitOrQueue makes an arrived job resident if a slot is free, else
// parks it in the FIFO. Returns whether the resident set changed.
func (e *engine) admitOrQueue(id int) bool {
	if e.sc.MaxResident > 0 && len(e.residents) >= e.sc.MaxResident {
		e.fifo = append(e.fifo, id)
		e.log(EventArrival, id)
		return false
	}
	e.residents = append(e.residents, id)
	e.log(EventArrival, id)
	return true
}

// admitQueued promotes FIFO waiters into freed residency slots, oldest
// first. Returns whether anything was admitted.
func (e *engine) admitQueued() bool {
	admitted := false
	for len(e.fifo) > 0 && (e.sc.MaxResident == 0 || len(e.residents) < e.sc.MaxResident) {
		id := e.fifo[0]
		e.fifo = e.fifo[1:]
		e.residents = append(e.residents, id)
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
	for i, id := range e.residents {
		st := &e.jobs[id]
		view[i] = Resident{
			Job:       id,
			App:       st.app,
			Remaining: 1 - st.frac,
			Assign:    sched.Assignment{Processors: st.procs, CacheShare: st.cache},
			Started:   st.started,
		}
	}
	m := e.sc.Metrics
	var allocStart time.Time
	if m != nil {
		allocStart = time.Now()
	}
	asg, err := e.sc.Policy.Allocate(e.sc.Platform, view)
	if m != nil {
		m.allocSeconds.Observe(time.Since(allocStart).Seconds())
		m.Tracer.Span("allocate", e.sc.Policy.Name(), e.now, -1, allocStart)
	}
	if err != nil {
		return fmt.Errorf("des: policy %s at t=%g: %w", e.sc.Policy.Name(), e.now, err)
	}
	if len(asg) != len(view) {
		return fmt.Errorf("des: policy %s returned %d assignments for %d resident jobs", e.sc.Policy.Name(), len(asg), len(view))
	}
	var sumP, sumX solve.Kahan
	for i, a := range asg {
		if a.Processors < 0 || math.IsNaN(a.Processors) || math.IsInf(a.Processors, 0) {
			return fmt.Errorf("des: policy %s assigned invalid processors %v to job %d", e.sc.Policy.Name(), a.Processors, view[i].Job)
		}
		// The share bound gets the same budgetTol slack as the sum
		// checks below: heuristic share arithmetic (normalization,
		// footprint caps) can land an ulp above 1, and rejecting that
		// while tolerating the same slack on the budget would make the
		// engine stricter than the schedules it replays.
		if a.CacheShare < 0 || a.CacheShare > 1+budgetTol || math.IsNaN(a.CacheShare) {
			return fmt.Errorf("des: policy %s assigned invalid cache share %v to job %d", e.sc.Policy.Name(), a.CacheShare, view[i].Job)
		}
		sumP.Add(a.Processors)
		sumX.Add(a.CacheShare)
	}
	if sumP.Sum() > e.sc.Platform.Processors*(1+budgetTol) {
		return fmt.Errorf("des: policy %s exceeded the processor budget: %v > %v", e.sc.Policy.Name(), sumP.Sum(), e.sc.Platform.Processors)
	}
	if sumX.Sum() > 1+budgetTol {
		return fmt.Errorf("des: policy %s exceeded the cache budget: %v > 1", e.sc.Policy.Name(), sumX.Sum())
	}
	applied := false
	for i, id := range e.residents {
		st := &e.jobs[id]
		if st.procs != asg[i].Processors || st.cache != asg[i].CacheShare {
			applied = true
			st.procs, st.cache = asg[i].Processors, asg[i].CacheShare
			st.exe = st.app.ExeD(e.sc.Platform, st.d, st.procs, st.cache)
		}
		if !st.started && st.procs > 0 {
			st.started = true
			st.start = e.now
			e.log(EventStart, id)
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

// planCompletions re-plans every resident job's completion event from
// the current state, invalidating all previous predictions. Jobs whose
// predicted completion cannot advance the clock (remaining time below
// one ulp of the current virtual time) are returned as stuck instead of
// queued, so the caller can finish them and avoid a zero-dt livelock.
func (e *engine) planCompletions() (stuck []int) {
	if len(e.residents) == 0 {
		return nil
	}
	stuck = e.stuck[:0]
	e.gen++
	for _, id := range e.residents {
		st := &e.jobs[id]
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
			stuck = append(stuck, id)
			continue
		}
		e.pq.push(qEvent{time: t, kind: qCompletion, job: id, gen: e.gen})
	}
	// Hand the scratch back for the next re-plan; the returned slice
	// stays valid because the caller consumes it before the next call.
	e.stuck = stuck
	return stuck
}

// recountQueue refreshes the current queue length: FIFO waiters plus
// residents holding no processors.
func (e *engine) recountQueue() {
	n := len(e.fifo)
	for _, id := range e.residents {
		if e.jobs[id].procs == 0 {
			n++
		}
	}
	e.queueLen = n
	if n > e.res.MaxQueue {
		e.res.MaxQueue = n
	}
}

// log appends one event to the result's event log, stamping the
// occupancy after the event: Resident counts jobs holding processors,
// Queued the FIFO waiters plus zero-allocation residents — the same
// partition the queue-length metric integrates, so statistics derived
// from the event stream agree with Result.MeanQueueLength. Jobs marked
// done inside an advance sweep are excluded even before the resident
// list is pruned.
func (e *engine) log(kind EventKind, job int) {
	running, parked := 0, 0
	for _, id := range e.residents {
		if st := &e.jobs[id]; !st.done {
			if st.procs > 0 {
				running++
			} else {
				parked++
			}
		}
	}
	ev := Event{
		Seq:      len(e.res.Events),
		Time:     e.now,
		Kind:     kind,
		Job:      job,
		Resident: running,
		Queued:   len(e.fifo) + parked,
	}
	if job >= 0 {
		ev.Name = e.jobs[job].app.Name
	}
	e.res.Events = append(e.res.Events, ev)
	if m := e.sc.Metrics; m != nil {
		m.events[kind].Inc()
		m.residentJobs.Set(int64(running))
		m.queueDepth.Set(int64(ev.Queued))
		m.Tracer.Event(kind.String(), ev.Name, e.now, job)
	}
}

// finalize computes per-job metrics and their summaries.
func (e *engine) finalize() {
	e.res.Jobs = make([]JobMetrics, len(e.jobs))
	waits := make([]float64, len(e.jobs))
	resps := make([]float64, len(e.jobs))
	stretches := make([]float64, len(e.jobs))
	for id := range e.jobs {
		st := &e.jobs[id]
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
		waits[id], resps[id], stretches[id] = m.Wait, m.Response, m.Stretch
		if st.finish > e.res.Makespan {
			e.res.Makespan = st.finish
		}
		if om := e.sc.Metrics; om != nil {
			om.waitHist.Observe(m.Wait)
			om.stretchHist.Observe(m.Stretch)
		}
	}
	// Summaries: errors impossible for the non-empty sample (Simulate
	// rejects empty arrival streams).
	e.res.Wait, _ = stats.Summarize(waits)
	e.res.Response, _ = stats.Summarize(resps)
	e.res.Stretch, _ = stats.Summarize(stretches)
}
