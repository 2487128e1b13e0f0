// Command spmvbench is the repository's end-to-end benchmark: five
// workloads, from pooled CG solves to update churn on a mutable matrix,
// each timed end to end and split by layer in a traced run. Format
// selection is pinned to the committed kernel profile so that it cannot
// drift with the host's noisy bandwidth. See README.md for the workloads,
// the metrics and how they relate.
//
// One workload (the form BENCHMARK.json's command takes):
//
//	spmvbench --workload solve --seed 1 --seconds 10 --trace 0
//
// All five, each in its own child process, appending to a run file:
//
//	spmvbench -seed 1 -out run.json [-trace 1]
//
// Paired comparison of two run files, one row per workload:
//
//	spmvbench -compare parent.json change.json
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"blockspmv/internal/machine"
	"blockspmv/internal/profile"
)

//go:embed testdata/profile-dp.json
var profileJSON []byte

//go:embed baseline.json
var baselineJSON []byte

func pinnedProfile() (*profile.Table, error) {
	t, err := profile.Load(bytes.NewReader(profileJSON))
	if err != nil {
		return nil, fmt.Errorf("load testdata/profile-dp.json: %w", err)
	}
	return t, nil
}

func profileSHA256() string {
	sum := sha256.Sum256(profileJSON)
	return hex.EncodeToString(sum[:])
}

// pinnedIterations returns the CG iteration count baseline.json records
// for this run's seed, if the full-size solve workload was run with it.
func (r *runner) pinnedIterations() (int, bool) {
	if r.cfg.tiny {
		return 0, false
	}
	var base runFile
	if err := json.Unmarshal(baselineJSON, &base); err != nil {
		return 0, false
	}
	for _, run := range base.Runs {
		if rep, ok := run.Workloads["solve"]; ok && run.Seed == r.cfg.seed && rep.Iterations > 0 {
			return rep.Iterations, true
		}
	}
	return 0, false
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload in this process (default: all five, each in a child process)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 20, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		traceDir = flag.String("trace-dir", ".bench_build/trace", "where a traced run writes its spans (JSON lines)")
		out      = flag.String("out", "", "all workloads: append this run to the run file")
		reportTo = flag.String("report", "", "one workload: also write the full report as JSON here")
		compare  = flag.Bool("compare", false, "compare two run files given as arguments: parent.json change.json (bounds from ./BENCHMARK.json)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare wants two run files: parent.json change.json")
		}
		regressed, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		workload: *name, seed: *seed,
		window: time.Duration(*seconds * float64(time.Second)), warmup: time.Second,
		trace: *trace == 1, traceDir: *traceDir,
	}
	if *name == "" {
		if err := runAll(cfg, *out); err != nil {
			fatalf("%v", err)
		}
		return
	}
	rep, err := runWorkload(cfg, os.Stderr)
	if err != nil {
		fatalf("%v", err)
	}
	if *reportTo != "" {
		if err := writeJSON(*reportTo, rep); err != nil {
			fatalf("%v", err)
		}
	}
	if err := printResult(os.Stdout, rep); err != nil {
		fatalf("%v", err)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spmvbench: "+format+"\n", args...)
	os.Exit(1)
}

// printResult writes the metric lines of rep, then the result object as
// the last line: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func printResult(w io.Writer, rep report) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, make(map[string]value)}
	if err := printLines(w, rep, !rep.Trace); err != nil {
		return err
	}
	for _, d := range metricDefs {
		if d.E2E != rep.Trace {
			res.Metrics[d.Name] = value{rep.Metrics[d.Name], d.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printLines writes one "workload metric value unit" line per end-to-end
// (or per-layer) metric, and fails on a metric the run did not measure.
func printLines(w io.Writer, rep report, e2e bool) error {
	for _, d := range metricDefs {
		if d.E2E != e2e {
			continue
		}
		v, ok := rep.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s not measured (%v)", rep.Workload, d.Name, v)
		}
		fmt.Fprintf(w, "%s %s %v %s\n", rep.Workload, d.Name, v, d.Unit)
	}
	return nil
}

// runFile accumulates runs of all five workloads and their summary.
type runFile struct {
	Provenance *provenance                   `json:"provenance,omitempty"`
	Summary    map[string]map[string]summary `json:"summary,omitempty"`
	Runs       []runRecord                   `json:"runs"`
}

// runRecord is one run of all workloads: the untraced reports, and with
// -trace 1 the traced reports beside them.
type runRecord struct {
	Seed      int64             `json:"seed"`
	Workloads map[string]report `json:"workloads"`
	Traced    map[string]report `json:"traced,omitempty"`
}

// summary is one metric's spread over the runs of a workload.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type provenance struct {
	Detected       machine.Machine       `json:"machine_detected"`
	ProfileMachine machine.Machine       `json:"profile_machine"`
	ProfileSHA256  string                `json:"profile_sha256"`
	NumCPU         int                   `json:"nproc"`
	GOMAXPROCS     int                   `json:"gomaxprocs"`
	GoVersion      string                `json:"go_version"`
	Commit         string                `json:"commit"`
	SLOms          map[string]float64    `json:"slo_ms"`
	WorkingSets    map[string]workingSet `json:"working_sets"`
	Selected       map[string]string     `json:"selected"`
}

// workingSet places a workload's matrix and vectors beside the caches of
// the pinned machine description.
type workingSet struct {
	Bytes     int64 `json:"bytes"`
	L2Bytes   int64 `json:"l2_bytes"`
	LLCBytes  int64 `json:"llc_bytes"`
	InsideL2  bool  `json:"inside_l2"`
	InsideLLC bool  `json:"inside_llc"`
}

// runAll runs every workload in its own child process, prints each
// end-to-end metric (and, traced, each per-layer metric and the tracing
// overhead) and appends the run to out.
func runAll(cfg config, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "spmvbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	rec := runRecord{Seed: cfg.seed, Workloads: make(map[string]report)}
	if cfg.trace {
		rec.Traced = make(map[string]report)
	}
	wrong := false
	for _, w := range workloads {
		rep, err := runChild(exe, tmp, w.name, cfg, false)
		if err != nil {
			return err
		}
		rec.Workloads[w.name] = rep
		wrong = wrong || !rep.Correct
		if err := printLines(os.Stdout, rep, true); err != nil {
			return err
		}
		fmt.Printf("%s selected %s\n", w.name, rep.Selected)
		if !cfg.trace {
			continue
		}
		traced, err := runChild(exe, tmp, w.name, cfg, true)
		if err != nil {
			return err
		}
		rec.Traced[w.name] = traced
		wrong = wrong || !traced.Correct
		if err := printLines(os.Stdout, traced, false); err != nil {
			return err
		}
		fmt.Printf("%s trace.overhead_p50_ms %v ms\n", w.name,
			traced.Metrics["latency_p50_ms"]-rep.Metrics["latency_p50_ms"])
	}
	if out != "" {
		if err := appendRun(out, rec); err != nil {
			return err
		}
	}
	if wrong {
		return fmt.Errorf("a workload returned wrong results")
	}
	return nil
}

func runChild(exe, tmp, name string, cfg config, trace bool) (report, error) {
	path := filepath.Join(tmp, name+".json")
	t := "0"
	if trace {
		path = filepath.Join(tmp, name+"-traced.json")
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.window.Seconds()), "-trace", t, "-trace-dir", cfg.traceDir, "-report", path)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	runErr := cmd.Run()
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, fmt.Errorf("workload %s: %v (%v)", name, runErr, err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("workload %s report: %w", name, err)
	}
	return rep, nil
}

// appendRun adds rec to the run file at path, refreshes the summary over
// all runs and records the provenance of the latest run.
func appendRun(path string, rec runRecord) error {
	var f runFile
	if err := readJSON(path, &f); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, rec)
	f.Summary = summarize(f.Runs)
	prov, err := collectProvenance(rec)
	if err != nil {
		return err
	}
	f.Provenance = prov
	return writeJSON(path, f)
}

func summarize(runs []runRecord) map[string]map[string]summary {
	vals := make(map[string]map[string][]float64)
	for _, run := range runs {
		for w, rep := range run.Workloads {
			if vals[w] == nil {
				vals[w] = make(map[string][]float64)
			}
			for _, d := range metricDefs {
				if v, ok := rep.Metrics[d.Name]; ok && d.E2E {
					vals[w][d.Name] = append(vals[w][d.Name], v)
				}
			}
		}
	}
	out := make(map[string]map[string]summary)
	for w, byMetric := range vals {
		out[w] = make(map[string]summary)
		for name, v := range byMetric {
			q1, q3 := quartiles(v)
			out[w][name] = summary{N: len(v), Median: median(v), Q1: q1, Q3: q3}
		}
	}
	return out
}

func collectProvenance(rec runRecord) (*provenance, error) {
	prof, err := pinnedProfile()
	if err != nil {
		return nil, err
	}
	p := &provenance{
		Detected: machine.Detect(), ProfileMachine: prof.Machine, ProfileSHA256: profileSHA256(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit:      "unknown",
		SLOms:       make(map[string]float64),
		WorkingSets: make(map[string]workingSet),
		Selected:    make(map[string]string),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					p.Commit += "+modified"
				}
			}
		}
	}
	names := make([]string, 0, len(rec.Workloads))
	for w := range rec.Workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, name := range names {
		rep := rec.Workloads[name]
		w, _ := lookupWorkload(name)
		p.SLOms[name] = ms(w.slo)
		l2, llc := prof.Machine.L2Bytes, prof.Machine.LLCBytes
		p.WorkingSets[name] = workingSet{
			Bytes: rep.WorkingSetBytes, L2Bytes: l2, LLCBytes: llc,
			InsideL2: rep.WorkingSetBytes <= l2, InsideLLC: rep.WorkingSetBytes <= llc,
		}
		p.Selected[name] = rep.Selected
		where := "beyond the reported LLC"
		if rep.WorkingSetBytes <= llc {
			where = "inside the reported LLC"
		}
		fmt.Printf("%s working set %.1f MiB (L2 %.1f MiB, LLC %.1f MiB): %s\n", name,
			float64(rep.WorkingSetBytes)/(1<<20), float64(l2)/(1<<20), float64(llc)/(1<<20), where)
	}
	return p, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
