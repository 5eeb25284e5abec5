package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
)

// metric is one reported figure: the median of its samples.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
	q1, q3  float64
	note    string
}

// summary returns the median and quartiles of xs. The quartiles follow
// Python's statistics.quantiles(xs, n=4) (its default exclusive method), so
// the printed spread is the one regression checks compute from the same
// values.
func summary(name, unit string, xs []float64) metric {
	m := metric{name: name, unit: unit, samples: len(xs)}
	switch len(xs) {
	case 0:
		m.value, m.q1, m.q3 = math.NaN(), math.NaN(), math.NaN()
		return m
	case 1:
		m.value, m.q1, m.q3 = xs[0], xs[0], xs[0]
		return m
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		m.value = s[n/2]
	} else {
		m.value = (s[n/2-1] + s[n/2]) / 2
	}
	q := quartiles(s)
	m.q1, m.q3 = q[0], q[2]
	return m
}

// single reports a value measured once per invocation.
func single(name, unit string, v float64) metric {
	return metric{name: name, unit: unit, value: v, samples: 1, q1: v, q3: v}
}

// quartiles is statistics.quantiles(sorted, n=4, method="exclusive") for at
// least two sorted values.
func quartiles(sorted []float64) [3]float64 {
	var out [3]float64
	ld := len(sorted)
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		out[i-1] = (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return out
}

// percentile is the nearest-rank percentile of xs, sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

// collectF maps each element of xs to a float.
func collectF[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// printTable writes metrics as an aligned table.
func printTable(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "%s\n", title)
	width := 0
	for _, m := range ms {
		width = max(width, len(m.name))
	}
	for _, m := range ms {
		spread := ""
		if m.samples > 1 && m.value != 0 {
			spread = fmt.Sprintf("  iqr %.1f%%", 100*(m.q3-m.q1)/math.Abs(m.value))
		}
		note := ""
		if m.note != "" {
			note = "  (" + m.note + ")"
		}
		fmt.Fprintf(w, "  %-*s %14.6g %-8s n=%-3d%s%s\n", width, m.name, m.value, m.unit, m.samples, spread, note)
	}
}

// cpuModel returns the first "model name" of a /proc/cpuinfo text.
func cpuModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
