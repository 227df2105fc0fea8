package des

import (
	"fmt"
)

// EventKind classifies entries of the append-only event log.
type EventKind int

const (
	// EventArrival: a job entered the system (resident or queued).
	EventArrival EventKind = iota
	// EventStart: a job received processors for the first time.
	EventStart
	// EventFinish: a job completed its work.
	EventFinish
	// EventRepartition: the online policy recomputed the allocation of
	// the resident set.
	EventRepartition
)

// String implements fmt.Stringer with the NDJSON wire names.
func (k EventKind) String() string {
	switch k {
	case EventArrival:
		return "arrival"
	case EventStart:
		return "start"
	case EventFinish:
		return "finish"
	case EventRepartition:
		return "repartition"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of the simulation's append-only event log: what
// happened, when, to which job, and the system occupancy after it. The
// log is the debugging record of an online run and the input to timeline
// rendering; it is emitted as NDJSON by cmd/dessim.
type Event struct {
	Seq  int       // position in the log, dense from 0
	Time float64   // virtual time of the event
	Kind EventKind // what happened
	Job  int       // job id, -1 for repartition events
	Name string    // job name, "" for repartition events
	// Resident and Queued are the occupancy after the event: jobs
	// holding processors, and jobs waiting (engine FIFO plus resident
	// jobs with a zero allocation).
	Resident int
	Queued   int
}
