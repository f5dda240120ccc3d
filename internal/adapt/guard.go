// Guard metrics: the operator's declaration of what "healthy" means
// for a canary. A guard bounds the windowed rate of one counter on
// every canary node, either absolutely or relative to the baseline
// cohort. Evaluation is a pure function over Windows — no clocks, no
// I/O — so every verdict is reproducible from the snapshots that
// produced it.
package adapt

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Guard bounds one counter's windowed rate on every canary node.
// Exactly one of the two forms is active:
//
//   - absolute:  rate <= Max                      (Relative false)
//   - relative:  rate <= baseline*Ratio + Slack   (Relative true)
//
// where baseline is the mean rate of the same (expanded) counter
// across the baseline cohort's windows. Metric may contain the
// placeholder "{node}", expanded to each node's name — so one guard
// like "node.{node}.drops<=5" reads each node's own counter even when
// the cohorts share a registry.
type Guard struct {
	Metric   string
	Relative bool
	Max      float64 // absolute ceiling, events/sec
	Ratio    float64 // relative: baseline multiplier
	Slack    float64 // relative: additive allowance, events/sec
}

func (g Guard) String() string {
	if g.Relative {
		return fmt.Sprintf("%s<=%gx+%g", g.Metric, g.Ratio, g.Slack)
	}
	return fmt.Sprintf("%s<=%g", g.Metric, g.Max)
}

// ParseGuard decodes the operator string form:
//
//	metric<=N        absolute: rate at most N events/sec
//	metric<=Rx       relative: at most R times the baseline rate
//	metric<=Rx+S     relative with additive slack S events/sec
//
// e.g. "node.{node}.drops<=0.5", "asp.{node}.faults<=2x+1".
func ParseGuard(s string) (Guard, error) {
	metric, bound, ok := strings.Cut(s, "<=")
	metric, bound = strings.TrimSpace(metric), strings.TrimSpace(bound)
	if !ok || metric == "" || bound == "" {
		return Guard{}, fmt.Errorf("adapt: guard %q: want metric<=bound", s)
	}
	g := Guard{Metric: metric}
	ratio, rest, relative := strings.Cut(bound, "x")
	if !relative {
		max, err := finite(bound)
		if err != nil {
			return Guard{}, fmt.Errorf("adapt: guard %q: bad bound: %w", s, err)
		}
		g.Max = max
		return g, nil
	}
	g.Relative = true
	r, err := finite(ratio)
	if err != nil {
		return Guard{}, fmt.Errorf("adapt: guard %q: bad ratio: %w", s, err)
	}
	g.Ratio = r
	if rest != "" {
		slack, ok := strings.CutPrefix(rest, "+")
		if !ok {
			return Guard{}, fmt.Errorf("adapt: guard %q: want Rx+S after ratio", s)
		}
		sl, err := finite(slack)
		if err != nil {
			return Guard{}, fmt.Errorf("adapt: guard %q: bad slack: %w", s, err)
		}
		g.Slack = sl
	}
	return g, nil
}

// finite parses one number of a bound. NaN and ±Inf parse as floats but
// make a guard that never (or always) trips, so they are refused.
func finite(text string) (float64, error) {
	v, err := strconv.ParseFloat(text, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = errors.New("not a finite number")
	}
	return v, err
}

// ParseGuards decodes a list of guard strings.
func ParseGuards(specs []string) ([]Guard, error) {
	guards := make([]Guard, 0, len(specs))
	for _, s := range specs {
		g, err := ParseGuard(s)
		if err != nil {
			return nil, err
		}
		guards = append(guards, g)
	}
	return guards, nil
}

// expandMetric substitutes the node name into a guard's counter name.
func expandMetric(metric, node string) string {
	return strings.ReplaceAll(metric, "{node}", node)
}

// Violation is one guard exceeded on one canary node in one window.
type Violation struct {
	Guard Guard
	Node  string
	Rate  float64 // observed canary rate, events/sec
	Limit float64 // the bound it exceeded
}

func (v Violation) String() string {
	return fmt.Sprintf("%s on %s: %.3g/s > limit %.3g/s", v.Guard, v.Node, v.Rate, v.Limit)
}

// EvalGuards evaluates every guard against every canary node's window.
// baseline supplies the comparison cohort for relative guards (its mean
// rate; an empty baseline means relative limits reduce to their slack).
// Pure: same windows, same verdict. Violations are ordered by guard
// then node name, so reports are deterministic too.
func EvalGuards(guards []Guard, canary, baseline map[string]Window) []Violation {
	var out []Violation
	for _, g := range guards {
		limitBase := 0.0
		if g.Relative {
			limitBase = g.Ratio*meanRate(g.Metric, baseline) + g.Slack
		} else {
			limitBase = g.Max
		}
		for _, node := range sortedNodes(canary) {
			rate := canary[node].Rate(expandMetric(g.Metric, node))
			if rate > limitBase {
				out = append(out, Violation{Guard: g, Node: node, Rate: rate, Limit: limitBase})
			}
		}
	}
	return out
}

// meanRate averages the expanded counter's rate across a cohort.
func meanRate(metric string, cohort map[string]Window) float64 {
	if len(cohort) == 0 {
		return 0
	}
	var sum float64
	for node, w := range cohort {
		sum += w.Rate(expandMetric(metric, node))
	}
	return sum / float64(len(cohort))
}

func sortedNodes(cohort map[string]Window) []string {
	nodes := make([]string, 0, len(cohort))
	for n := range cohort {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return nodes
}
