package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// compare reads the untraced run records under one or two result
// directories. With one it reports each end-to-end metric's median,
// quartiles and run-to-run spread per workload; with two (base, then head)
// it also reports head's change against base and whether it stays within the
// metric's bound. Records from different hosts are refused.
func compare(w io.Writer, args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: compare RESULTS_DIR [HEAD_RESULTS_DIR]")
	}
	def, err := loadDefinition("BENCHMARK.json")
	if err != nil {
		return err
	}
	sets := make([][]record, len(args))
	var host *Host
	for i, dir := range args {
		if sets[i], err = loadRecords(dir); err != nil {
			return err
		}
		if len(sets[i]) == 0 {
			return fmt.Errorf("%s holds no untraced run records", dir)
		}
		for _, r := range sets[i] {
			if host == nil {
				h := r.Stamp.Host
				host = &h
			} else if r.Stamp.Host != *host {
				return fmt.Errorf("refusing to compare results from different hosts: %+v and %+v", *host, r.Stamp.Host)
			}
		}
	}
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s\n", host.CPU, host.NProc, host.GOMAXPROCS, host.Go)
	for i, set := range sets {
		fmt.Fprintf(w, "set %d: %s, code %s\n", i+1, args[i], codes(set))
	}
	for _, wl := range workloadNames(sets) {
		fmt.Fprintf(w, "\n%s\n", wl)
		for _, d := range def.EndToEnd {
			base := values(sets[0], wl, d.Name)
			if len(base) < 2 {
				fmt.Fprintf(w, "  %-14s %d base runs, need 2\n", d.Name, len(base))
				continue
			}
			q1, q2, q3, _ := quartiles(base)
			ok, sp, err := steady(base, d.Bound)
			if err != nil {
				return fmt.Errorf("%s %s: %w", wl, d.Name, err)
			}
			line := fmt.Sprintf("  %-14s base median %.6g %s [q1 %.6g, q3 %.6g] n=%d spread %.3f (bound %.2f, steady %v)",
				d.Name, q2, d.Unit, q1, q3, len(base), sp, d.Bound, ok)
			if len(sets) == 2 {
				head := values(sets[1], wl, d.Name)
				if len(head) == 0 {
					line += "; no head runs"
				} else {
					line += "; " + verdict(d, base, head, sp)
				}
			}
			fmt.Fprintln(w, line)
		}
	}
	return nil
}

// verdict states head's change against base for one metric.
func verdict(d metricDef, base, head []float64, baseSpread float64) string {
	bm, hm := median(base), median(head)
	worse := (hm - bm) / bm
	if d.Better == "higher" {
		worse = -worse
	}
	s := fmt.Sprintf("head median %.6g n=%d, %+.1f%% worse", hm, len(head), 100*worse)
	switch {
	case baseSpread > d.Bound:
		return s + ": unresolved, base spread exceeds the bound"
	case worse > d.Bound:
		return s + ": REGRESSED beyond the bound"
	default:
		return s + ": within the bound"
	}
}

// loadRecords reads every untraced record under dir.
func loadRecords(dir string) ([]record, error) {
	var out []record
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			out = append(out, r)
		}
		return nil
	})
	return out, err
}

func values(rs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

func workloadNames(sets [][]record) []string {
	seen := map[string]bool{}
	for _, rs := range sets {
		for _, r := range rs {
			seen[r.Workload] = true
		}
	}
	return sortedNames(seen)
}

// codes lists the distinct code stamps of a record set.
func codes(rs []record) string {
	seen := map[string]bool{}
	for _, r := range rs {
		c := r.Stamp.Source
		if r.Stamp.Commit != "" {
			c = r.Stamp.Commit + " (" + c + ")"
		}
		seen[c] = true
	}
	return strings.Join(sortedNames(seen), ", ")
}
