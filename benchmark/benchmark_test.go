package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"blockspmv"
	"blockspmv/internal/core"
	"blockspmv/internal/floats"
	"blockspmv/internal/mat"
	"blockspmv/internal/shard"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check against
// the metric table.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload tables in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if strings.Join(names, ",") != strings.Join(code, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, code)
	}
	var want []metricJSON
	for _, d := range metricDefs {
		if d.E2E {
			want = append(want, metricJSON{d.Name, d.Unit, d.Better})
		}
	}
	for _, d := range metricDefs {
		if !d.E2E {
			want = append(want, metricJSON{d.Name, d.Unit, d.Better})
		}
	}
	got := append(append([]metricJSON(nil), b.EndToEnd...), b.PerLayer...)
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the code reports %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("metric %d: BENCHMARK.json has %+v, the code reports %+v", i, got[i], want[i])
		}
	}
}

// TestSmoke runs every workload on tiny inputs, untraced and traced, and
// checks that each reports every metric of BENCHMARK.json with its unit
// and that every response passed the correctness gate. It asserts no
// timing value.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: w.name, seed: 7, tiny: true, trace: traced,
				window: 200 * time.Millisecond, warmup: 20 * time.Millisecond,
			}
			rep, err := runWorkload(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			var out bytes.Buffer
			if err := printResult(&out, rep); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Unit string `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line %q: %v", w.name, lines[len(lines)-1], err)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or not in %s (%+v)", w.name, traced, m.Name, m.Unit, got)
				}
			}
		}
	}
}

// TestSelectionPinned repeats each workload's format selection on its
// full-size matrix at the seed of the first run in baseline.json and
// requires the formats recorded there, so a change that moves selection
// shows up here before it shows up as a performance change.
func TestSelectionPinned(t *testing.T) {
	var base runFile
	if err := json.Unmarshal(baselineJSON, &base); err != nil {
		t.Fatal(err)
	}
	if len(base.Runs) == 0 {
		t.Fatal("baseline.json holds no run")
	}
	run := base.Runs[0]
	prof, err := pinnedProfile()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		want := run.Workloads[w.name].Selected
		m, err := inputMatrix(w.name, run.Seed, false)
		if err != nil {
			t.Fatal(err)
		}
		var got string
		switch w.name {
		case "solve":
			f, _ := blockspmv.Autotune(m, prof.Machine, prof)
			got = f.Name()
		case "shard":
			var parts []string
			for _, rr := range shard.Plan(m, 2) {
				parts = append(parts, servedFormat(shard.SliceRows(m, rr[0], rr[1]), prof))
			}
			got = strings.Join(parts, "|")
		default:
			got = servedFormat(m, prof)
		}
		if got != want {
			t.Errorf("%s (seed %d): selected %s, baseline.json records %s", w.name, run.Seed, got, want)
		}
	}
}

// servedFormat selects the way the registry does: OVERLAP over the whole
// candidate space, priced for panels of the batcher's width.
func servedFormat(m *mat.COO[float64], prof *blockspmv.Profile) string {
	stats := core.EnumerateStatsAll(mat.PatternOf(m), floats.SizeOf[float64]())
	pred := core.SelectSafe(core.Overlap{}, core.WithRHS(stats, batchMax), prof.Machine, prof)
	return core.Instantiate(m, pred.Cand).Name()
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	ch := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 50, End: 60}, {Start: 90, End: 120}}
	if got := covered(ch, 0, 100); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
}
