package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// spreadReport reads result lines of repeated runs of one workload and
// writes, per metric, the median and the spread: the distance between
// the first and third quartiles as a share of the median, the figure an
// end-to-end metric's bound is judged against.
func spreadReport(r io.Reader, w io.Writer) error {
	bounds := make(map[string]float64, len(endToEnd))
	for _, d := range endToEnd {
		bounds[d.name] = d.bound
	}
	values := make(map[string][]float64)
	runs, failed := 0, 0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		var out output
		if err := json.Unmarshal(sc.Bytes(), &out); err != nil {
			return fmt.Errorf("line %d: %w", runs+1, err)
		}
		runs++
		failed += out.Failed
		for name, m := range out.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if runs < 2 {
		return fmt.Errorf("need at least two result lines, got %d", runs)
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d runs, %d failed operations\n", runs, failed)
	for _, n := range names {
		vs := values[n]
		_, med, _ := quartiles(vs)
		line := fmt.Sprintf("%-36s median %-14.6g spread %.3f", n, med, spread(vs))
		if b, ok := bounds[n]; ok {
			verdict := "within bound"
			if spread(vs) > b {
				verdict = "OVER BOUND"
			}
			line += fmt.Sprintf("  bound %.2f %s", b, verdict)
		}
		fmt.Fprintln(w, line)
	}
	return nil
}
