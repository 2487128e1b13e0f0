package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json that compare needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles judges paired runs of a parent and a change. Runs pair by
// seed. A metric is a gain when the change wins at least nine tenths of
// the pairs and the medians differ by more than the parent's
// interquartile range; otherwise it is ok, regressed (median worse by
// more than its bound) or unresolved (a spread wider than the bound,
// unless every change run beats every parent run). It prints one row per
// workload and reports whether anything regressed or stayed unresolved.
func compareFiles(w io.Writer, specPath, parentPath, changePath string) (bool, error) {
	var sp spec
	if err := readJSON(specPath, &sp); err != nil {
		return false, err
	}
	var parent, change runFile
	if err := readJSON(parentPath, &parent); err != nil {
		return false, err
	}
	if err := readJSON(changePath, &change); err != nil {
		return false, err
	}
	pv, cv := bySeed(parent), bySeed(change)
	var names []string
	for name := range pv {
		if _, ok := cv[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("no workload appears in both run files")
	}
	bad := false
	for _, name := range names {
		var cells []string
		for _, m := range sp.EndToEnd {
			p, c := pairs(pv[name], cv[name], m.Name)
			if len(p) == 0 {
				cells = append(cells, m.Name+": no pairs")
				bad = true
				continue
			}
			v := judge(p, c, m.Better == "higher", m.Bound)
			bad = bad || v.verdict == "regressed" || v.verdict == "unresolved"
			cells = append(cells, fmt.Sprintf("%s: %s (%+.1f%%, %d/%d wins, spread %.1f%%)",
				m.Name, v.verdict, v.delta*100, v.wins, len(p), v.spread*100))
		}
		fmt.Fprintf(w, "%-12s %s\n", name, strings.Join(cells, "; "))
	}
	return bad, nil
}

// bySeed maps workload -> seed -> untraced reports, in file order.
func bySeed(f runFile) map[string]map[int64][]report {
	out := make(map[string]map[int64][]report)
	for _, run := range f.Runs {
		for name, rep := range run.Workloads {
			if out[name] == nil {
				out[name] = make(map[int64][]report)
			}
			out[name][run.Seed] = append(out[name][run.Seed], rep)
		}
	}
	return out
}

// pairs lines up the parent's and the change's values of one metric by
// seed, in seed order.
func pairs(p, c map[int64][]report, metric string) (pv, cv []float64) {
	var seeds []int64
	for s := range p {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		for i := 0; i < min(len(p[s]), len(c[s])); i++ {
			a, ok1 := p[s][i].Metrics[metric]
			b, ok2 := c[s][i].Metrics[metric]
			if ok1 && ok2 {
				pv, cv = append(pv, a), append(cv, b)
			}
		}
	}
	return pv, cv
}

type verdict struct {
	verdict string
	delta   float64 // relative change of the median, signed so that > 0 is worse
	spread  float64 // the wider side's interquartile range over its median
	wins    int
}

func judge(p, c []float64, higherBetter bool, bound float64) verdict {
	better := func(a, b float64) bool { // a reads better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	var v verdict
	for i := range p {
		if better(c[i], p[i]) {
			v.wins++
		}
	}
	mp, mc := median(p), median(c)
	v.delta = (mc - mp) / mp
	if higherBetter {
		v.delta = -v.delta
	}
	q1, q3 := quartiles(p)
	iqr := q3 - q1
	cq1, cq3 := quartiles(c)
	v.spread = max(iqr/mp, (cq3-cq1)/mc)
	allBetter := true
	for _, a := range c {
		for _, b := range p {
			allBetter = allBetter && better(a, b)
		}
	}
	gap := mc - mp
	if gap < 0 {
		gap = -gap
	}
	switch {
	case v.wins*10 >= 9*len(p) && v.delta < 0 && gap > iqr:
		v.verdict = "gain"
	case allBetter:
		v.verdict = "ok"
	case v.delta > bound:
		v.verdict = "regressed"
	case v.spread > bound:
		v.verdict = "unresolved"
	default:
		v.verdict = "ok"
	}
	return v
}
