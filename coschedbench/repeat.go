package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/stats"
)

// repeatMain is the steadiness report: it runs one workload --runs
// times, each as a fresh untraced process on its own seed (seed, seed+1,
// ...), and prints every end-to-end metric's median, quartiles and
// spread (interquartile range over median). Given a second binary (-b)
// it runs the two in pairs on the same seed, alternating which goes
// first, and adds the second side's median and the ratio of medians.
func repeatMain(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("coschedbench repeat", flag.ContinueOnError)
	workload := fs.String("workload", "", "traffic mix to repeat")
	runs := fs.Int("runs", 10, "runs per binary")
	seed := fs.Uint64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.Int("seconds", 30, "--seconds of every run")
	a := fs.String("a", "", "benchmark binary (default: this one)")
	b := fs.String("b", "", "second benchmark binary, compared against -a")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := lookupWorkload(*workload); err != nil {
		return err
	}
	if *a == "" {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		*a = exe
	}
	bins := []string{*a}
	if *b != "" {
		bins = append(bins, *b)
	}
	vals := make([]map[string][]float64, len(bins))
	for k := range vals {
		vals[k] = map[string][]float64{}
	}
	for i := 0; i < *runs; i++ {
		order := []int{0, 1}[:len(bins)]
		if len(bins) == 2 && i%2 == 1 {
			order = []int{1, 0}
		}
		s := *seed + uint64(i)
		for _, k := range order {
			out, err := runOnce(ctx, bins[k], "--workload", *workload, "--seed", strconv.FormatUint(s, 10),
				"--seconds", strconv.Itoa(*seconds), "--trace", "0")
			if err != nil {
				return fmt.Errorf("run %d (seed %d, %s): %w", i, s, bins[k], err)
			}
			var line strings.Builder
			fmt.Fprintf(&line, "run %d seed %d bin %c:", i, s, 'a'+k)
			for _, d := range endToEnd {
				v := out.Metrics[d.Name].Value
				vals[k][d.Name] = append(vals[k][d.Name], v)
				fmt.Fprintf(&line, " %s=%.6g", d.Name, v)
			}
			fmt.Fprintln(stdout, line.String())
		}
	}

	type summary struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Spread float64 `json:"spread"`
	}
	summarize := func(xs []float64) summary {
		q1, q3 := quartiles(xs)
		m := stats.Median(xs)
		return summary{Median: m, Q1: q1, Q3: q3, Spread: ratio(q3-q1, m)}
	}
	report := make([]map[string]summary, len(bins))
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s, %d runs per binary\tunit\tmedian\tq1\tq3\tspread", *workload, *runs)
	if len(bins) == 2 {
		fmt.Fprint(tw, "\tb median\tb spread\tb/a")
	}
	fmt.Fprintln(tw)
	for k := range bins {
		report[k] = map[string]summary{}
		for _, d := range endToEnd {
			report[k][d.Name] = summarize(vals[k][d.Name])
		}
	}
	for _, d := range endToEnd {
		sa := report[0][d.Name]
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.1f%%", d.Name, d.Unit, sa.Median, sa.Q1, sa.Q3, 100*sa.Spread)
		if len(bins) == 2 {
			sb := report[1][d.Name]
			fmt.Fprintf(tw, "\t%.6g\t%.1f%%\t%.4f", sb.Median, 100*sb.Spread, ratio(sb.Median, sa.Median))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	line, err := json.Marshal(map[string]any{"workload": *workload, "runs": *runs, "binaries": bins, "summary": report})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// runOnce runs one benchmark process and parses its final line.
func runOnce(ctx context.Context, bin string, args ...string) (*outcome, error) {
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out outcome
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &out); jerr != nil {
		if err == nil {
			err = jerr
		}
		return nil, fmt.Errorf("%w; output:\n%s", err, stdout.String())
	}
	if err != nil {
		return nil, fmt.Errorf("%w; output:\n%s", err, stdout.String())
	}
	return &out, nil
}
