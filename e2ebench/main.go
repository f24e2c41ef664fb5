// Command e2ebench is the repository's end-to-end benchmark: real DGS
// training in one process, served by the production server stack over
// loopback TCP, with a replica, an open-loop reader and a checkpointer
// beside the trainers. Run it through run.sh, which builds it; README.md
// describes the workloads and metrics.
//
//	bash e2ebench/run.sh --workload cnn-sync --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload untraced and then traced, and prints the per-layer metrics
// of the traced run. Each workload's report ends with its JSON result line;
// without --workload every workload runs in turn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setups is how many times a run sets up its stack; setup_s is the median.
const setups = 7

// outDir holds checkpoints and traces, relative to the repository root the
// benchmark runs from; run.sh keeps its build there too.
const outDir = ".bench_build/e2ebench"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all to run every workload in turn")
		seed    = flag.Uint64("seed", 1, "input seed: the order trainers draw examples in")
		seconds = flag.Float64("seconds", 15, "nominal run length; sets each workload's step budget")
		trace   = flag.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	)
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		if err := mainErr(n, *seed, *seconds, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
	}
}

func mainErr(name string, seed uint64, seconds float64, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	steps := w.stepsPerTrainer(seconds)
	rep := &report{metrics: map[string]metric{}, correct: true}

	if !traced {
		var times []float64
		var st *stack
		for i := 0; i < setups; i++ {
			if st != nil {
				st.close()
			}
			t0 := time.Now()
			if st, err = newStack(w, seed, steps, nil); err != nil {
				return err
			}
			times = append(times, time.Since(t0).Seconds())
		}
		runtime.GC()
		r, err := execute(st, outDir)
		st.close()
		if err != nil {
			return err
		}
		rep.endToEnd(r, median(times))
		rep.count(r, "")
	} else {
		plain, err := measure(w, seed, steps, nil)
		if err != nil {
			return err
		}
		rep.count(plain, "untraced ")
		rec := newRecorder(time.Now())
		tr, err := measure(w, seed, steps, rec)
		if err != nil {
			return err
		}
		rep.count(tr, "traced ")
		spans := rep.perLayer(tr, rec, plain)
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		rep.note("trace: %d spans written to %s", len(spans), path)
	}
	return rep.print(w)
}

// measure sets up a stack once and runs it.
func measure(w *workload, seed uint64, steps int, rec *recorder) (*run, error) {
	st, err := newStack(w, seed, steps, rec)
	if err != nil {
		return nil, err
	}
	defer st.close()
	runtime.GC()
	return execute(st, outDir)
}

// report accumulates metrics, failures and human-readable notes.
type report struct {
	metrics           map[string]metric
	attempted, failed int
	correct           bool
	notes             []string
}

// set records a metric. JSON has no NaN or infinity, so a value that is not
// finite (the loss of a diverged run) is reported as the largest float32 and
// the run is marked incorrect.
func (rep *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		rep.note("%s is %v; reported as %g", name, v, math.MaxFloat32)
		rep.correct = false
		v = math.MaxFloat32
	}
	rep.metrics[name] = metric{Value: v, Unit: unit}
}

func (rep *report) note(format string, args ...any) {
	rep.notes = append(rep.notes, fmt.Sprintf(format, args...))
}

// count folds a run's operations and checks into the result; label names
// the run in the notes.
func (rep *report) count(r *run, label string) {
	a, f := r.failures()
	rep.attempted += a
	rep.failed += f
	for _, c := range r.checks {
		status := "ok"
		if c.err != nil {
			rep.correct = false
			status = "FAILED: " + c.err.Error()
		}
		rep.note("check %s%-16s %s", label, c.name, status)
	}
}

// print writes the notes and one line per metric, then the JSON result as
// the last line.
func (rep *report) print(w *workload) error {
	fmt.Printf("workload %s: %d trainer(s), depth %d\n", w.name, w.trainers, w.depth)
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Printf("  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
