// Command perfbench is borg's end-to-end benchmark. One run drives one
// workload at one seed for a fixed time, checks the program's outputs,
// and prints every metric by name with its unit and sample count. The
// last line of standard output is a JSON summary:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// With -trace 0 the summary holds the end-to-end metrics. With -trace 1
// the run repeats the workload with spans recorded around every call the
// benchmark makes into a layer, prints the tracing overhead and each
// layer's self time, measures every layer from outside, writes the spans
// to -out, and the summary holds the per-layer metrics.
//
// Build and run it through perfbench/run.sh, which also builds the
// borg-serve child from the same checkout. METRICS.md maps every metric
// to its layer, how it is measured and which end-to-end metric it moves.
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

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	serveBin string
	outDir   string
}

// pass is what one pass of a workload produced.
type pass struct {
	e2e       report
	layers    report
	attempted int
	failed    int
	problems  []string // failed correctness checks
}

// workloads maps each workload name to its pass function. tr is nil on
// an untraced pass; a traced pass also measures the layers from outside.
var workloads = map[string]func(cfg config, seconds float64, tr *tracer) (*pass, error){
	"stream-covar":  runStream,
	"http-cofactor": runHTTP,
	"batch-lmfao":   runBatch,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: stream-covar, http-cofactor or batch-lmfao")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "borg-serve binary built from this checkout")
	flag.StringVar(&cfg.outDir, "out", "perfbench-out", "directory for span files")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}

	var final *pass
	var published report
	if trace == 0 {
		p, err := run(cfg, cfg.seconds, nil)
		if err != nil {
			fatal(err)
		}
		p.e2e.print("end-to-end")
		final, published = p, p.e2e
	} else {
		// Half the time untraced, half traced: the difference between
		// the two passes' end-to-end numbers is the tracing overhead.
		plain, err := run(cfg, cfg.seconds/2, nil)
		if err != nil {
			fatal(err)
		}
		tr := newTracer()
		traced, err := run(cfg, cfg.seconds/2, tr)
		if err != nil {
			fatal(err)
		}
		plain.e2e.print("end-to-end, untraced pass")
		traced.e2e.print("end-to-end, traced pass")
		printOverhead(plain.e2e, traced.e2e)
		tr.printSelfTimes()
		spanFile := filepath.Join(cfg.outDir, "spans-"+cfg.workload+".jsonl")
		if err := tr.write(spanFile); err != nil {
			fatal(err)
		}
		fmt.Printf("spans: %d written to %s (%d dropped)\n", len(tr.spans), spanFile, tr.dropped)
		traced.layers.print("per-layer")
		traced.attempted += plain.attempted
		traced.failed += plain.failed
		traced.problems = append(plain.problems, traced.problems...)
		final, published = traced, traced.layers
	}
	for _, p := range final.problems {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", p)
	}
	if len(final.problems) > 0 {
		os.Exit(1)
	}
	summary(final, published)
}

// summary prints the JSON line with the non-detail metrics of r: the
// end-to-end report of an untraced run, the per-layer one of a traced run.
func summary(p *pass, r report) {
	metrics := map[string]any{}
	for _, m := range r {
		if m.detail {
			continue
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fatal(fmt.Errorf("%s has no value: the run took no samples of it; give it more -seconds", m.name))
		}
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   len(p.problems) == 0,
		"attempted": p.attempted,
		"failed":    p.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func printOverhead(plain, traced report) {
	fmt.Println("tracing overhead (traced pass minus untraced pass):")
	for _, m := range plain {
		if t, ok := traced.get(m.name); ok && m.value != 0 {
			fmt.Printf("  %-28s %+14.4f %s (%+.1f%%)\n", m.name, t.value-m.value, m.unit, 100*(t.value-m.value)/m.value)
		}
	}
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// liveHeapMB is the live heap after full collections; the second one
// empties the sync.Pool victim caches the first one left.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// median runs f reps times and returns the median duration.
func median(reps int, f func() time.Duration) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		ds[i] = float64(f())
	}
	return time.Duration(quantile(ds, 0.5))
}
