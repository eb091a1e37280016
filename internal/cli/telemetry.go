package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"storeatomicity/internal/obslog"
	"storeatomicity/internal/telemetry"
)

// Telemetry bundles the observability flags shared by the nine tools:
//
//	-metrics-addr ADDR  serve /metrics (Prometheus text), /debug/vars
//	                    (expvar), and /debug/pprof on ADDR
//	-metrics-hold DUR   keep that server up DUR after the run finishes,
//	                    so a scraper can collect the final snapshot
//	-trace-out PATH     write a Chrome trace_event JSON file on exit
//	-journal PATH       write the structured NDJSON event journal to
//	                    PATH ("-" = stderr, interleave-safe)
//	-run-dir DIR        drop this process's journal and trace into DIR
//	                    under canonical names, so mmobs can merge a
//	                    whole fleet run from one directory
//	-run-id ID          stamp events/traces with ID (default: derived;
//	                    workers adopt the coordinator's at registration)
//	-progress MODE      live stderr progress line: auto|on|off
//	                    (enumeration tools only)
//
// Register the flags before flag.Parse, Init after, and defer Close.
// When no observability flag is used every accessor returns nil and the
// engines run on their zero-cost disabled path.
type Telemetry struct {
	Addr       string
	Hold       time.Duration
	TraceOut   string
	JournalOut string
	RunDir     string
	RunID      string
	Progress   string

	// Instance names this process inside a run directory (defaults to
	// the tool name; mmworker sets it to its -id before Init so two
	// workers sharing a -run-dir do not clobber each other's files).
	Instance string

	tool        string
	reg         *telemetry.Registry
	enum        *telemetry.EnumMetrics
	mach        *telemetry.MachineMetrics
	dist        *telemetry.DistMetrics
	fleet       *telemetry.FleetMetrics
	tracer      *telemetry.Tracer
	srv         *telemetry.Server
	prog        *telemetry.Progress
	journal     *obslog.Journal
	journalFile *os.File
	console     *obslog.Console
}

// RegisterFlags installs -metrics-addr, -metrics-hold, -trace-out,
// -journal, -run-dir, and -run-id on the default flag set.
func (t *Telemetry) RegisterFlags() {
	flag.StringVar(&t.Addr, "metrics-addr", "",
		"serve /metrics (Prometheus), /debug/vars (expvar), and /debug/pprof on this address (e.g. 127.0.0.1:9100)")
	flag.DurationVar(&t.Hold, "metrics-hold", 0,
		"keep the -metrics-addr server up this long after the run completes")
	flag.StringVar(&t.TraceOut, "trace-out", "",
		"write phase-level execution spans as Chrome trace_event JSON to this file (chrome://tracing)")
	flag.StringVar(&t.JournalOut, "journal", "",
		"write the structured NDJSON event journal to this file (\"-\" = stderr)")
	flag.StringVar(&t.RunDir, "run-dir", "",
		"write this process's journal and trace into this directory under canonical names (mmobs merges them)")
	flag.StringVar(&t.RunID, "run-id", "",
		"run ID stamped on journal events and traces (default: derived; workers adopt the coordinator's)")
}

// RegisterProgressFlag additionally installs -progress (the enumeration
// tools' live status line).
func (t *Telemetry) RegisterProgressFlag() {
	flag.StringVar(&t.Progress, "progress", "auto",
		"live stderr progress line: auto (only on a terminal), on, off")
}

// progressOn resolves the -progress mode against the actual stderr.
func (t *Telemetry) progressOn() bool {
	switch t.Progress {
	case "on":
		return true
	case "auto":
		return telemetry.IsTerminal(os.Stderr)
	default:
		return false
	}
}

// active reports whether any observability feature was requested.
func (t *Telemetry) active() bool {
	return t.Addr != "" || t.TraceOut != "" || t.JournalOut != "" || t.RunDir != "" || t.progressOn()
}

// Init builds the metric registry, tracer, journal, and HTTP server
// demanded by the parsed flags. tool prefixes diagnostics. A run with
// no observability flags allocates nothing.
func (t *Telemetry) Init(tool string) error {
	t.tool = tool
	if !t.active() {
		return nil
	}
	name := t.Instance
	if name == "" {
		name = tool
	}
	if t.RunDir != "" {
		if err := os.MkdirAll(t.RunDir, 0o755); err != nil {
			return fmt.Errorf("%s: -run-dir: %w", tool, err)
		}
		if t.JournalOut == "" {
			t.JournalOut = filepath.Join(t.RunDir, name+".journal.ndjson")
		}
		if t.TraceOut == "" {
			t.TraceOut = filepath.Join(t.RunDir, name+".trace.json")
		}
	}
	if t.RunID == "" {
		// Placeholder until a coordinator hands over the authoritative
		// ID; unique enough to tell two local runs apart.
		t.RunID = fmt.Sprintf("r%08x", uint32(time.Now().UnixNano())^uint32(os.Getpid()<<16))
	}
	t.reg = telemetry.NewRegistry()
	t.enum = telemetry.NewEnumMetrics(t.reg)
	t.mach = telemetry.NewMachineMetrics(t.reg)
	t.dist = telemetry.NewDistMetrics(t.reg)
	if t.TraceOut != "" {
		t.tracer = telemetry.NewTracer()
		t.tracer.SetMeta("run_id", t.RunID)
		t.tracer.SetMeta("source", name)
	}
	// The console serializes the live progress line with any stderr
	// stream (a "-" journal foremost); it exists whenever both could
	// write at once.
	if t.progressOn() {
		t.console = obslog.NewConsole(os.Stderr)
	}
	if t.JournalOut != "" {
		var out *os.File
		switch t.JournalOut {
		case "-":
			out = os.Stderr
		default:
			f, err := os.Create(t.JournalOut)
			if err != nil {
				return fmt.Errorf("%s: -journal: %w", tool, err)
			}
			t.journalFile, out = f, f
		}
		if out == os.Stderr && t.console != nil {
			t.journal = obslog.New(t.console, t.RunID, name)
		} else {
			t.journal = obslog.New(out, t.RunID, name)
		}
	}
	if t.Addr != "" {
		srv, err := telemetry.Serve(t.Addr, t.reg)
		if err != nil {
			return fmt.Errorf("%s: %w", tool, err)
		}
		t.srv = srv
		fmt.Fprintf(os.Stderr, "%s: telemetry on http://%s (/metrics, /debug/vars, /debug/pprof)\n", tool, srv.Addr())
	}
	return nil
}

// Enum returns the enumeration metric bundle (nil when telemetry is off)
// for core.Options.Metrics.
func (t *Telemetry) Enum() *telemetry.EnumMetrics { return t.enum }

// Machine returns the machine/coherence metric bundle (nil when
// telemetry is off) for machine.Config.Telemetry.
func (t *Telemetry) Machine() *telemetry.MachineMetrics { return t.mach }

// Dist returns the distributed-enumeration metric bundle (nil when
// telemetry is off) for dist.Config.Metrics / dist.WorkerConfig.Metrics.
func (t *Telemetry) Dist() *telemetry.DistMetrics { return t.dist }

// Fleet lazily registers and returns the coordinator's fleet-wide
// aggregation gauges (nil when telemetry is off).
func (t *Telemetry) Fleet() *telemetry.FleetMetrics {
	if t.reg == nil {
		return nil
	}
	if t.fleet == nil {
		t.fleet = telemetry.NewFleetMetrics(t.reg)
	}
	return t.fleet
}

// Registry returns the backing metric registry (nil when telemetry is
// off) for servers that expose /metrics themselves.
func (t *Telemetry) Registry() *telemetry.Registry { return t.reg }

// Tracer returns the phase tracer (nil unless -trace-out or -run-dir
// was given) for core.Options.Tracer.
func (t *Telemetry) Tracer() *telemetry.Tracer { return t.tracer }

// Journal returns the structured event journal (nil unless -journal or
// -run-dir was given) for core.Options.Journal and the dist configs.
func (t *Telemetry) Journal() *obslog.Journal { return t.journal }

// Snapshot flattens the current counters (nil when telemetry is off).
func (t *Telemetry) Snapshot() telemetry.Snapshot {
	if t.reg == nil {
		return nil
	}
	return t.reg.Snapshot()
}

// StartProgress begins the live stderr status line when -progress allows
// it. budget is the MaxBehaviors state budget (0 = none); deadline is
// the wall-clock cutoff (zero time = none). Call StopProgress (or
// Close) before printing results.
func (t *Telemetry) StartProgress(budget int, deadline time.Time) {
	if t.enum == nil || !t.progressOn() {
		return
	}
	if t.console != nil {
		t.prog = telemetry.StartProgress(t.console, t.enum, budget, deadline, 0)
		return
	}
	t.prog = telemetry.StartProgress(os.Stderr, t.enum, budget, deadline, 0)
}

// StopProgress clears the live status line (idempotent, nil-safe).
func (t *Telemetry) StopProgress() {
	t.prog.Stop()
	t.prog = nil
}

// Close stops the progress line, writes the -trace-out file, closes the
// journal, honors -metrics-hold, and shuts the HTTP server down. Safe
// to defer unconditionally.
func (t *Telemetry) Close() {
	t.StopProgress()
	if t.tracer != nil && t.TraceOut != "" {
		if err := t.tracer.WriteFile(t.TraceOut); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", t.tool, err)
		} else {
			fmt.Fprintf(os.Stderr, "%s: trace written to %s (%d events)\n", t.tool, t.TraceOut, t.tracer.Len())
		}
	}
	if t.journalFile != nil {
		if err := t.journalFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: journal: %v\n", t.tool, err)
		}
		t.journalFile = nil
	}
	if t.srv != nil {
		t.srv.Hold(t.Hold)
		t.srv.Close()
		t.srv = nil
	}
}
