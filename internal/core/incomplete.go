package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"storeatomicity/internal/telemetry"
)

// IncompleteReason classifies why an enumeration stopped before
// exhausting the behavior set.
type IncompleteReason string

const (
	// ReasonCanceled: the context was canceled (SIGINT, caller cancel).
	ReasonCanceled IncompleteReason = "canceled"
	// ReasonDeadline: the context deadline expired.
	ReasonDeadline IncompleteReason = "deadline"
	// ReasonMaxBehaviors: the MaxBehaviors state budget was reached.
	ReasonMaxBehaviors IncompleteReason = "max-behaviors"
	// ReasonMaxNodes: a behavior's graph hit the MaxNodes budget
	// (unbounded loop under the paper's non-normalizing procedure).
	ReasonMaxNodes IncompleteReason = "max-nodes"
	// ReasonPanic: a worker panicked; the offending behavior is carried
	// by the PanicError for reproduction.
	ReasonPanic IncompleteReason = "worker-panic"
	// ReasonWorkersLost: a distributed run lost its workers past the
	// coordinator's deadline; the unfinished shards form the frontier.
	ReasonWorkersLost IncompleteReason = "workers-lost"
)

// Incomplete reports a gracefully degraded enumeration: the paper's
// procedure "is not a normalizing strategy", so state explosion, budgets,
// deadlines, and crashes are expected operating conditions, and every
// stopping condition hands back the behaviors found so far plus this
// report. Callers decide whether partial is acceptable.
type Incomplete struct {
	// Reason classifies the stopping condition.
	Reason IncompleteReason
	// Cause is the underlying error (ctx.Err(), budget error, or a
	// *PanicError).
	Cause error
	// StatesExplored counts behaviors processed before the stop.
	StatesExplored int
	// StatesPending counts behaviors left unexplored on the frontier.
	StatesPending int
	// Frontier is the replayable resolution path of every pending
	// behavior; feed it to Resume (via a Checkpoint) to continue the
	// run where it left off.
	Frontier [][]PathStep
	// SpillDegraded lists the reasons the tiered dedup spill store fell
	// back to one-sided operation (flush, compact, or read failures).
	// Non-empty means the run stayed sound but may have re-explored
	// duplicates or grown dedup memory past its budget.
	SpillDegraded []string
	// Metrics is the final telemetry snapshot of the stopped run (nil
	// when telemetry is off), so a degraded run still reports what it
	// did before stopping.
	Metrics telemetry.Snapshot
}

// incompleteJSON is the wire shadow of Incomplete: Cause is an error
// (unserializable in general), so it is carried as its message, with a
// *PanicError preserved structurally so the replay path survives a
// round-trip through a coordinator or a log file.
type incompleteJSON struct {
	Reason         IncompleteReason   `json:"reason"`
	Cause          string             `json:"cause,omitempty"`
	Panic          *PanicError        `json:"panic,omitempty"`
	StatesExplored int                `json:"states_explored"`
	StatesPending  int                `json:"states_pending"`
	Frontier       [][]PathStep       `json:"frontier,omitempty"`
	SpillDegraded  []string           `json:"spill_degraded,omitempty"`
	Metrics        telemetry.Snapshot `json:"metrics,omitempty"`
}

// MarshalJSON implements json.Marshaler so an Incomplete report can
// cross a process boundary (dist workers post theirs to the
// coordinator) without losing the panic replay path.
func (inc *Incomplete) MarshalJSON() ([]byte, error) {
	w := incompleteJSON{
		Reason:         inc.Reason,
		StatesExplored: inc.StatesExplored,
		StatesPending:  inc.StatesPending,
		Frontier:       inc.Frontier,
		SpillDegraded:  inc.SpillDegraded,
		Metrics:        inc.Metrics,
	}
	var pe *PanicError
	if errors.As(inc.Cause, &pe) {
		w.Panic = pe
	} else if inc.Cause != nil {
		w.Cause = inc.Cause.Error()
	}
	return json.Marshal(&w)
}

// UnmarshalJSON reconstructs the report. A structural panic cause comes
// back as a real *PanicError; any other cause becomes an opaque error
// carrying the original message.
func (inc *Incomplete) UnmarshalJSON(data []byte) error {
	var w incompleteJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*inc = Incomplete{
		Reason:         w.Reason,
		StatesExplored: w.StatesExplored,
		StatesPending:  w.StatesPending,
		Frontier:       w.Frontier,
		SpillDegraded:  w.SpillDegraded,
		Metrics:        w.Metrics,
	}
	switch {
	case w.Panic != nil:
		inc.Cause = w.Panic
	case w.Cause != "":
		inc.Cause = errors.New(w.Cause)
	}
	return nil
}

// ErrIncomplete is the sentinel wrapped by every graceful-stop error, so
// callers can `errors.Is(err, core.ErrIncomplete)` and then inspect
// Result.Incomplete.
var ErrIncomplete = errors.New("core: enumeration incomplete")

// IncompleteError is the error returned alongside a partial Result. It
// unwraps to both ErrIncomplete and the underlying cause, so
// errors.Is(err, context.DeadlineExceeded) and errors.As(err,
// **PanicError) both work.
type IncompleteError struct {
	Report *Incomplete
}

// Error implements error. The budget message keeps the historical
// "behavior budget" phrasing that callers grep for.
func (e *IncompleteError) Error() string {
	return fmt.Sprintf("core: enumeration incomplete (%s): %v", e.Report.Reason, e.Report.Cause)
}

// Unwrap exposes the underlying cause and the ErrIncomplete sentinel.
func (e *IncompleteError) Unwrap() []error { return []error{ErrIncomplete, e.Report.Cause} }

// PanicError isolates a worker crash: instead of taking the process down
// (and losing the repro), the panic is converted into this error carrying
// the offending program and the enumeration path that reached the
// crashing behavior.
type PanicError struct {
	// Recovered is the value passed to panic().
	Recovered any
	// Stack is the crashing goroutine's stack trace.
	Stack []byte
	// Program is the listing of the program being enumerated.
	Program string
	// Path is the (load, store) resolution sequence that produced the
	// crashing behavior; replaying it reproduces the crash
	// deterministically.
	Path []PathStep
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: worker panic: %v (replay path %v)\nprogram:\n%s\n%s",
		e.Recovered, e.Path, e.Program, e.Stack)
}

// panicJSON is the wire shadow of PanicError: Recovered is an arbitrary
// panic value, so it crosses the wire as its rendered message.
type panicJSON struct {
	Recovered string     `json:"recovered"`
	Stack     []byte     `json:"stack,omitempty"`
	Program   string     `json:"program,omitempty"`
	Path      []PathStep `json:"path,omitempty"`
}

// MarshalJSON implements json.Marshaler; the replay path and program are
// preserved exactly, the panic value as a string.
func (e *PanicError) MarshalJSON() ([]byte, error) {
	return json.Marshal(&panicJSON{
		Recovered: fmt.Sprint(e.Recovered),
		Stack:     e.Stack,
		Program:   e.Program,
		Path:      e.Path,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (e *PanicError) UnmarshalJSON(data []byte) error {
	var w panicJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*e = PanicError{Recovered: w.Recovered, Stack: w.Stack, Program: w.Program, Path: w.Path}
	return nil
}

// errNodeBudget tags the per-state node-budget error so the engine can
// classify it as a graceful stop (ReasonMaxNodes) rather than an engine
// fault.
var errNodeBudget = errors.New("node budget exhausted")

// budgetError builds the MaxBehaviors error with the historical phrasing.
func budgetError(max int) error {
	return fmt.Errorf("core: behavior budget (%d) exhausted", max)
}
