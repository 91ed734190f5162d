package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// benchDir is the benchmark's directory, relative to the repository root.
const benchDir = "perfbench"

// benchConfig is the part of BENCHMARK.json the comparator reads.
type benchConfig struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runResult is the part of a run's result line the comparator reads.
type runResult struct {
	Failed  int `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// abPairs is the number of A/B pairs per workload. Pair k runs seed
// defaultSeed+k on both sides, so the first pair also checks both sides'
// outputs against the reference digest.
const abPairs = 10

// runCompare is the A/B comparator. It checks the program out at --ref in a
// throwaway git worktree, overlays the current benchmark directory so both
// sides run identical benchmark code, builds both, and runs abPairs pairs of
// every workload in BENCHMARK.json for its run_seconds, alternating which
// side runs first. It prints each side's quartiles, the pairs the change won
// and a verdict per metric.
func runCompare(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	ref := fs.String("ref", "HEAD", "git ref of the parent (A) side; B is the working tree")
	if err := fs.Parse(args); err != nil {
		return err
	}
	top, err := gitOutput("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(top, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var cfg benchConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}

	work := filepath.Join(top, ".bench_build", "ab")
	tree := filepath.Join(work, "parent")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	// A worktree left by an interrupted comparison is removed first.
	_, _ = gitOutput(top, "worktree", "remove", "--force", tree)
	if _, err := gitOutput(top, "worktree", "add", "--detach", tree, *ref); err != nil {
		return err
	}
	defer func() {
		if _, err := gitOutput(top, "worktree", "remove", "--force", tree); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: removing worktree:", err)
		}
	}()
	if err := os.RemoveAll(filepath.Join(tree, benchDir)); err != nil {
		return err
	}
	if err := os.CopyFS(filepath.Join(tree, benchDir), os.DirFS(filepath.Join(top, benchDir))); err != nil {
		return fmt.Errorf("copying the benchmark into the worktree: %w", err)
	}
	sides := [2]struct{ name, root, bin string }{
		{"A " + *ref, tree, filepath.Join(work, "perfbench-a")},
		{"B working tree", top, filepath.Join(work, "perfbench-b")},
	}
	for _, s := range sides {
		cmd := exec.Command("go", "build", "-o", s.bin, ".")
		cmd.Dir = filepath.Join(s.root, benchDir)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("building %s: %w", s.name, err)
		}
	}

	fmt.Fprintf(out, "A = %s, B = working tree; %d pairs per workload, %d s per run, seeds %d..%d\n",
		*ref, abPairs, cfg.RunSeconds, defaultSeed, defaultSeed+abPairs-1)
	for _, w := range cfg.Workloads {
		var res [2][]runResult
		var failed [2]int
		for k := 0; k < abPairs; k++ {
			order := []int{0, 1}
			if k%2 == 1 {
				order = []int{1, 0}
			}
			for _, side := range order {
				r, err := runOnce(sides[side].bin, sides[side].root, w.Name, defaultSeed+int64(k), cfg.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s, %s pair %d: %w", w.Name, sides[side].name, k, err)
				}
				res[side] = append(res[side], r)
				failed[side] += r.Failed
			}
		}
		fmt.Fprintf(out, "\n%s\n", w.Name)
		fmt.Fprintf(out, "  %-16s %-34s %-34s %-7s %-7s %s\n", "metric",
			"A q1 / median / q3", "B q1 / median / q3", "B/A", "B wins", "verdict")
		for _, m := range cfg.EndToEnd {
			var a, b []float64
			for k := range res[0] {
				a = append(a, res[0][k].Metrics[m.Name].Value)
				b = append(b, res[1][k].Metrics[m.Name].Value)
			}
			v := judge(a, b, m.Better == "higher", m.Bound)
			if failed[1] > failed[0] {
				v.verdict = failedMore(m.Name, v.verdict)
			}
			fmt.Fprintf(out, "  %-16s %-34s %-34s %-7.4g %-7s %s\n", m.Name,
				fmt.Sprintf("%.4g / %.4g / %.4g", v.a[0], v.a[1], v.a[2]),
				fmt.Sprintf("%.4g / %.4g / %.4g", v.b[0], v.b[1], v.b[2]),
				v.b[1]/v.a[1], fmt.Sprintf("%d/%d", v.wins, len(a)), v.verdict)
		}
		for side, n := range failed {
			if n > 0 {
				fmt.Fprintf(out, "  %s: %d failed ops over %d runs\n", sides[side].name, n, abPairs)
			}
		}
	}
	return nil
}

// failedMore is the verdict on a metric when the change failed more ops than
// the parent: a gain does not count, and ok_frac reads worse.
func failedMore(metric, verdict string) string {
	switch {
	case metric == "ok_frac":
		return "worse"
	case verdict == "improved":
		return "not counted: more failed ops"
	}
	return verdict
}

// runOnce runs one benchmark binary from its tree's root and parses the
// result line.
func runOnce(bin, root, workload string, seed int64, seconds int) (runResult, error) {
	cmd := exec.Command(bin, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return runResult{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
	var r runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return runResult{}, fmt.Errorf("parsing the result line: %w", err)
	}
	return r, nil
}

func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outb, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(outb)), nil
}

// comparison is the verdict on one metric: A's and B's quartiles, the pairs
// B won, and the verdict.
type comparison struct {
	a, b    [3]float64
	wins    int
	verdict string
}

// judge compares paired samples a (parent) and b (change), a[k] and b[k]
// taken in pair k, following the rule for small sandboxes:
//
//   - improved: B wins at least nine tenths of the pairs (ties count for
//     neither side) and the medians differ by more than A's interquartile
//     range;
//   - unresolved: A's own spread (interquartile range over median) exceeds
//     the bound, unless every B run reads better than every A run;
//   - worse: B's median is worse than A's by more than the bound;
//   - no-worse: otherwise.
func judge(a, b []float64, higherIsBetter bool, bound float64) comparison {
	better := func(x, y float64) bool { // x reads better than y
		if higherIsBetter {
			return x > y
		}
		return x < y
	}
	var c comparison
	for k := range a {
		if better(b[k], a[k]) {
			c.wins++
		}
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	c.a[0], c.a[1], c.a[2] = quartiles(sa)
	c.b[0], c.b[1], c.b[2] = quartiles(sb)
	iqr := c.a[2] - c.a[0]
	gain := c.a[1] - c.b[1] // positive when B is better
	if higherIsBetter {
		gain = -gain
	}
	// Every B run beats every A run when B's worst beats A's best.
	allBetter := sb[len(sb)-1] < sa[0]
	if higherIsBetter {
		allBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case 10*c.wins >= 9*len(a) && gain > iqr:
		c.verdict = "improved"
	case iqr > bound*math.Abs(c.a[1]) && !allBetter:
		c.verdict = "unresolved"
	case -gain > bound*math.Abs(c.a[1]):
		c.verdict = "worse"
	default:
		c.verdict = "no-worse"
	}
	return c
}
