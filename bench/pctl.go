package bench

import (
	"sort"
	"time"
)

// Quantile returns the nearest-rank q-quantile of sorted (ascending) values.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Median sorts values in place and returns their median.
func Median(values []float64) float64 {
	sort.Float64s(values)
	n := len(values)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

// Sample is one completed batch: when it completed (since the phase began),
// how long it took, how late it was sent, and how many operations it held.
type Sample struct {
	At, Lat, Late time.Duration
	Ops           int
}

// windows cuts samples into consecutive windows of the given length and
// calls fn on each full one; the partial window at the end is dropped so
// that every window covers the same time.
func windows(samples []Sample, length, phase time.Duration, fn func(w []Sample)) {
	sort.Slice(samples, func(i, j int) bool { return samples[i].At < samples[j].At })
	full := int(phase / length)
	at := 0
	for w := 0; w < full; w++ {
		end := at
		for end < len(samples) && samples[end].At < time.Duration(w+1)*length {
			end++
		}
		fn(samples[at:end])
		at = end
	}
}

// WindowedRate is the median over windows of operations completed per
// second: one stall moves one window, not the result.
func WindowedRate(samples []Sample, length, phase time.Duration) (rate float64, nWindows int) {
	var rates []float64
	windows(samples, length, phase, func(w []Sample) {
		ops := 0
		for _, s := range w {
			ops += s.Ops
		}
		rates = append(rates, float64(ops)/length.Seconds())
	})
	return Median(rates), len(rates)
}

// WindowedQuantile is the median over windows of the per-window q-quantile
// of pick(sample), in microseconds. minBeyond is the smallest number of
// samples any window had beyond its quantile: the quantile is supported
// only where that is at least ten.
func WindowedQuantile(samples []Sample, length, phase time.Duration, q float64, pick func(Sample) time.Duration) (us float64, nWindows, minBeyond int) {
	var qs, vals []float64
	minBeyond = -1
	windows(samples, length, phase, func(w []Sample) {
		vals = vals[:0]
		for _, s := range w {
			vals = append(vals, float64(pick(s))/1e3)
		}
		sort.Float64s(vals)
		qs = append(qs, Quantile(vals, q))
		if beyond := int(float64(len(vals)) * (1 - q)); minBeyond < 0 || beyond < minBeyond {
			minBeyond = beyond
		}
	})
	if minBeyond < 0 {
		minBeyond = 0
	}
	return Median(qs), len(qs), minBeyond
}
