package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"storeatomicity/internal/order"
	"storeatomicity/internal/program"
	"storeatomicity/internal/telemetry"
)

// PathStep is one Load Resolution choice: load node Load observed store
// node Store. Node IDs are deterministic (generation order is a function
// of the resolution sequence), so a sequence of steps replayed from the
// root state reproduces a behavior exactly; the labels are carried as a
// staleness cross-check and for human-readable repro reports.
type PathStep struct {
	Load       int    `json:"l"`
	Store      int    `json:"s"`
	LoadLabel  string `json:"ll,omitempty"`
	StoreLabel string `json:"sl,omitempty"`
}

// String renders "Label<-Label" for repro reports.
func (p PathStep) String() string { return p.LoadLabel + "<-" + p.StoreLabel }

// Checkpoint is the on-disk form of an interrupted enumeration: the
// resolution paths of every completed behavior and of every behavior
// still on the work frontier. Paths — not raw states — are serialized, so
// the format is independent of the engine's internal buffers and of
// program representation details like Op closures.
type Checkpoint struct {
	// Model names the reordering policy; Resume refuses a mismatch.
	Model string `json:"model"`
	// ProgramHash fingerprints the program listing; Resume refuses a
	// checkpoint taken from a different program.
	ProgramHash uint64 `json:"program_hash"`
	// Speculative records Options.Speculative at checkpoint time.
	Speculative bool `json:"speculative,omitempty"`
	// Symmetry records whether the run reduced by symmetry
	// (Options.symmetryOn: off under DisableDedup, under a CandidateHook,
	// and without fork-time keys, as in the reference engine). A
	// symmetry-pruned frontier omits orbit twins (they are re-derived at
	// the end of a complete run), so resuming under a different setting
	// would silently drop behaviors; Resume refuses a mismatch.
	Symmetry bool `json:"symmetry,omitempty"`
	// StatesExplored carries the work counter forward so budgets are
	// cumulative across resumes.
	StatesExplored int `json:"states_explored"`
	// Completed holds the path of every distinct final execution found.
	Completed [][]PathStep `json:"completed"`
	// Frontier holds the path of every unexplored behavior. In the file
	// it is stored as FrontierC; LoadCheckpoint expands it back, so
	// in-memory consumers only ever see this field.
	Frontier [][]PathStep `json:"frontier,omitempty"`
	// FrontierC is the compressed on-disk form of Frontier written by
	// Save. The frontier dominates checkpoint size on big runs and its
	// sibling states share long resolution prefixes, so each path stores
	// only the number of leading steps it shares with the previous path
	// plus its own flattened (load, store) tail, labels elided. Dropping
	// the labels skips the per-step label cross-check on replay; the
	// node-range and convergence checks still reject stale checkpoints.
	FrontierC []pathBlock `json:"frontier_c,omitempty"`
	// Metrics is the telemetry snapshot at checkpoint time (absent when
	// telemetry is off), so a checkpoint also explains the run it froze.
	// Resume ignores it.
	Metrics telemetry.Snapshot `json:"metrics,omitempty"`
}

// CheckpointConfig asks an engine to serialize its frontier to Path every
// Every, so a killed long run restarts where it left off.
type CheckpointConfig struct {
	// Path is the checkpoint file; writes are atomic (temp + rename).
	Path string
	// Every is the write interval. Zero disables timed writes.
	Every time.Duration
	// OnError, when non-nil, observes periodic write failures (timed
	// checkpointing is best-effort and never aborts the enumeration).
	OnError func(error)
}

// ProgramHash fingerprints a program listing with FNV-1a, for checkpoint
// validation.
func ProgramHash(p *program.Program) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range []byte(p.String()) {
		h = fnvMix(h, uint64(b))
	}
	return h
}

// pathBlock is one frontier path in the compressed checkpoint encoding:
// P leading steps shared with the previous path in the list, then the
// remaining steps as flattened (load, store) pairs in T.
type pathBlock struct {
	P int     `json:"p,omitempty"`
	T []int32 `json:"t,omitempty"`
}

// compressFrontier delta-encodes a frontier path list against itself.
func compressFrontier(paths [][]PathStep) []pathBlock {
	out := make([]pathBlock, len(paths))
	var prev []PathStep
	for i, path := range paths {
		shared := 0
		for shared < len(path) && shared < len(prev) &&
			path[shared].Load == prev[shared].Load && path[shared].Store == prev[shared].Store {
			shared++
		}
		var t []int32
		if tail := path[shared:]; len(tail) > 0 {
			t = make([]int32, 0, 2*len(tail))
			for _, st := range tail {
				t = append(t, int32(st.Load), int32(st.Store))
			}
		}
		out[i] = pathBlock{P: shared, T: t}
		prev = path
	}
	return out
}

// expandFrontier inverts compressFrontier.
func expandFrontier(blocks []pathBlock) ([][]PathStep, error) {
	out := make([][]PathStep, len(blocks))
	var prev []PathStep
	for i, b := range blocks {
		if b.P < 0 || b.P > len(prev) || len(b.T)%2 != 0 {
			return nil, fmt.Errorf("core: corrupt checkpoint frontier: block %d shares %d steps of a %d-step predecessor (tail %d words)",
				i, b.P, len(prev), len(b.T))
		}
		path := make([]PathStep, 0, b.P+len(b.T)/2)
		path = append(path, prev[:b.P]...)
		for j := 0; j < len(b.T); j += 2 {
			path = append(path, PathStep{Load: int(b.T[j]), Store: int(b.T[j+1])})
		}
		out[i] = path
		prev = path
	}
	return out, nil
}

// checkpointTrailer marks the integrity trailer appended by Save: the
// FNV-1a hash of the JSON payload, as 16 hex digits. A torn write (crash
// mid-write on a filesystem where the temp+rename discipline was bypassed,
// a truncating copy, a partial download) loses or corrupts the trailer,
// so LoadCheckpoint can tell "damaged file" apart from "stale format".
const checkpointTrailer = "\n#fnv1a "

// CorruptCheckpointError reports a checkpoint file that failed integrity
// validation: truncated, torn, bit-flipped, or missing its checksum
// trailer entirely. It is deliberately distinct from the stale-checkpoint
// errors replay raises — a corrupt file should be discarded, a stale one
// regenerated.
type CorruptCheckpointError struct {
	Path   string
	Reason string
}

func (e *CorruptCheckpointError) Error() string {
	return fmt.Sprintf("core: corrupt checkpoint %s: %s", e.Path, e.Reason)
}

// checksumBytes is the payload hash written into the trailer.
func checksumBytes(data []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range data {
		h = fnvMix(h, uint64(b))
	}
	return h
}

// Save writes the checkpoint atomically: temp file in the same directory,
// then rename, so a crash mid-write never corrupts a previous good
// checkpoint. The frontier is written in its compressed form, and the
// file ends with a checksum trailer over the JSON payload so a torn or
// truncated file is detected at load time instead of surfacing as a raw
// JSON decode error.
func (c *Checkpoint) Save(path string) error {
	enc := *c
	if len(enc.Frontier) > 0 {
		enc.FrontierC = compressFrontier(enc.Frontier)
		enc.Frontier = nil
	}
	data, err := json.Marshal(&enc)
	if err != nil {
		return fmt.Errorf("core: marshal checkpoint: %w", err)
	}
	data = append(data, fmt.Sprintf("%s%016x\n", checkpointTrailer, checksumBytes(data))...)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	return nil
}

// splitTrailer separates a checkpoint file into JSON payload and declared
// checksum. Errors are *CorruptCheckpointError.
func splitTrailer(path string, data []byte) ([]byte, uint64, error) {
	i := bytes.LastIndex(data, []byte(checkpointTrailer))
	if i < 0 {
		return nil, 0, &CorruptCheckpointError{Path: path,
			Reason: "missing checksum trailer (truncated or torn write?)"}
	}
	tail := data[i+len(checkpointTrailer):]
	if len(tail) != 17 || tail[16] != '\n' {
		return nil, 0, &CorruptCheckpointError{Path: path,
			Reason: "malformed checksum trailer (torn write?)"}
	}
	var want uint64
	if _, err := fmt.Sscanf(string(tail[:16]), "%016x", &want); err != nil {
		return nil, 0, &CorruptCheckpointError{Path: path,
			Reason: "unreadable checksum trailer"}
	}
	return data[:i], want, nil
}

// LoadCheckpoint reads a checkpoint written by Save, validating the
// checksum trailer first: truncation or corruption anywhere in the file
// returns a *CorruptCheckpointError rather than a raw decode error.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: read checkpoint: %w", err)
	}
	payload, want, err := splitTrailer(path, data)
	if err != nil {
		return nil, err
	}
	if got := checksumBytes(payload); got != want {
		return nil, &CorruptCheckpointError{Path: path,
			Reason: fmt.Sprintf("checksum mismatch: file says %016x, payload hashes to %016x", want, got)}
	}
	c := &Checkpoint{}
	if err := json.Unmarshal(payload, c); err != nil {
		return nil, fmt.Errorf("core: parse checkpoint %s: %w", path, err)
	}
	if len(c.FrontierC) > 0 {
		f, err := expandFrontier(c.FrontierC)
		if err != nil {
			return nil, fmt.Errorf("core: parse checkpoint %s: %w", path, err)
		}
		c.Frontier, c.FrontierC = f, nil
	}
	return c, nil
}

// Checkpoint builds the resumable snapshot of a (typically partial)
// result: completed paths come from the executions, frontier paths from
// the Incomplete report (empty for a finished run — the checkpoint then
// just memoizes the final set).
func (r *Result) Checkpoint(p *program.Program, opts Options) *Checkpoint {
	c := &Checkpoint{
		Model:          r.Model,
		ProgramHash:    ProgramHash(p),
		Speculative:    opts.Speculative,
		Symmetry:       opts.symmetryOn(),
		StatesExplored: r.Stats.StatesExplored,
		Metrics:        opts.Metrics.Snapshot(),
	}
	for _, e := range r.Executions {
		c.Completed = append(c.Completed, e.Path)
	}
	if r.Incomplete != nil {
		c.Frontier = r.Incomplete.Frontier
	}
	return c
}

// replayPath rebuilds the state a path leads to, exactly as the engine
// would have pushed it onto the work frontier: quiescence is reached
// before each resolution, and the final quiescence pass is left to the
// consumer (the engine for frontier states, replayCompleted for finals).
func replayPath(p *program.Program, pol order.Policy, opts Options, steps []PathStep) (*state, error) {
	s := newState(p, pol, opts)
	for i, st := range steps {
		if err := s.runToQuiescence(); err != nil {
			return nil, fmt.Errorf("core: checkpoint replay step %d: %w", i, err)
		}
		if st.Load < 0 || st.Load >= len(s.nodes) || st.Store < 0 || st.Store >= len(s.nodes) {
			return nil, fmt.Errorf("core: checkpoint replay step %d: node out of range (stale checkpoint?)", i)
		}
		if st.LoadLabel != "" && s.nodes[st.Load].Label != st.LoadLabel {
			return nil, fmt.Errorf("core: checkpoint replay step %d: load %d is %q, checkpoint says %q (stale checkpoint?)",
				i, st.Load, s.nodes[st.Load].Label, st.LoadLabel)
		}
		if st.StoreLabel != "" && s.nodes[st.Store].Label != st.StoreLabel {
			return nil, fmt.Errorf("core: checkpoint replay step %d: store %d is %q, checkpoint says %q (stale checkpoint?)",
				i, st.Store, s.nodes[st.Store].Label, st.StoreLabel)
		}
		if err := s.resolveLoad(st.Load, st.Store); err != nil {
			return nil, fmt.Errorf("core: checkpoint replay step %d: %w", i, err)
		}
		if err := s.closure(); err != nil {
			return nil, fmt.Errorf("core: checkpoint replay step %d: %w", i, err)
		}
	}
	return s, nil
}

// replayCompleted rebuilds a recorded final execution's state and runs it
// to completion.
func replayCompleted(p *program.Program, pol order.Policy, opts Options, steps []PathStep) (*state, error) {
	s, err := replayPath(p, pol, opts, steps)
	if err != nil {
		return nil, err
	}
	if err := s.runToQuiescence(); err != nil {
		return nil, fmt.Errorf("core: checkpoint replay: completed path did not converge: %w", err)
	}
	if !s.done() {
		return nil, fmt.Errorf("core: checkpoint replay: completed path left unresolved nodes (stale checkpoint?)")
	}
	return s, nil
}

// validate checks a checkpoint against the run it is about to seed.
func (c *Checkpoint) validate(p *program.Program, pol order.Policy, opts Options) error {
	if c.Model != pol.Name() {
		return fmt.Errorf("core: checkpoint is for model %s, resuming under %s", c.Model, pol.Name())
	}
	if h := ProgramHash(p); c.ProgramHash != h {
		return fmt.Errorf("core: checkpoint program hash %#x does not match program %#x", c.ProgramHash, h)
	}
	if c.Speculative != opts.Speculative {
		return fmt.Errorf("core: checkpoint speculation mode (%v) does not match options (%v)", c.Speculative, opts.Speculative)
	}
	if sym := opts.symmetryOn(); c.Symmetry != sym {
		return fmt.Errorf("core: checkpoint symmetry mode (%v) does not match options (%v)", c.Symmetry, sym)
	}
	return nil
}
