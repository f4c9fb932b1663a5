package main

import (
	"fmt"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 2 3 4", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.75 || med != 2.5 || q3 != 3.25 {
		t.Fatalf("quartiles = %v %v %v, want 1.75 2.5 3.25", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Fatalf("single sample quartiles = %v %v %v", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "cpu_us_per_op", Better: "lower", Bound: 0.25}
	parent := []float64{2.7, 2.8, 2.6, 2.9, 2.7, 2.8, 2.75, 2.65, 2.85, 2.7}
	gain := make([]float64, len(parent))
	noise := make([]float64, len(parent))
	worse := make([]float64, len(parent))
	for i, p := range parent {
		gain[i] = p - 0.5
		noise[i] = p + 0.01*float64(i%2*2-1)
		worse[i] = p * 1.4
	}
	for _, tc := range []struct {
		name   string
		change []float64
		want   string
		verb   string
	}{
		{"gain", gain, "10/10", "(gain)"},
		{"noise", noise, "5/10", ""},
		{"worse", worse, "0/10", "(WORSE beyond bound)"},
		{"identical", parent, "0/10", "(identical)"},
		{"too few pairs to call a gain", gain[:9], "9/9", ""},
	} {
		cell := compare(lower, parent[:len(tc.change)], tc.change)
		if !strings.Contains(cell, tc.want) {
			t.Errorf("%s: cell %q lacks %q", tc.name, cell, tc.want)
		}
		if got := strings.Contains(cell, "("); got != (tc.verb != "") || !strings.HasSuffix(cell, tc.verb) {
			t.Errorf("%s: cell %q, want verdict %q", tc.name, cell, tc.verb)
		}
	}
	// Ties are not wins: six wins and four exact ties move the median by more
	// than the parent's (zero) IQR, but six pairs in ten is not nine. The
	// sign test counts only the six untied pairs: p = 1/64.
	flat := []float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}
	if cell := compare(lower, flat, []float64{1, 1, 1, 1, 1, 1, 2, 2, 2, 2}); !strings.HasSuffix(cell, ", 6/10 p=0.01562") {
		t.Errorf("mostly tied: cell %q, want 6/10 p=0.01562 and no verdict", cell)
	}
	// Higher-is-better flips who wins; a tie counts for neither side.
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.25}
	if cell := compare(higher, []float64{100, 100, 100}, []float64{100, 150, 90}); !strings.Contains(cell, ", 1/3") {
		t.Errorf("cell %q, want 1/3 pairs won", cell)
	}
}

func TestParseResultRefusesBadRuns(t *testing.T) {
	ok := "noise\n" + `{"correct":true,"attempted":10,"failed":0,"metrics":{"ops_per_s":{"value":5,"unit":"op/s"}}}` + "\n"
	res, err := parseResult([]byte(ok))
	if err != nil || res.Metrics["ops_per_s"].Value != 5 {
		t.Fatalf("parseResult = %+v, %v", res, err)
	}
	for _, bad := range []string{
		`{"correct":false,"attempted":10,"failed":0,"metrics":{}}`,
		`{"correct":true,"attempted":10,"failed":3,"metrics":{}}`,
		"ops_per_s 5 op/s",
		"",
	} {
		if _, err := parseResult([]byte(bad)); err == nil {
			t.Errorf("parseResult(%q) accepted a run that must not count", bad)
		}
	}
}

func TestPairOrderBalancedAndSeeded(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		order := pairOrder(10, seed)
		first := 0
		for _, p := range order {
			if p {
				first++
			}
		}
		if first != 5 {
			t.Fatalf("seed %d: parent first in %d of 10 pairs, want 5: %v", seed, first, order)
		}
		if again := pairOrder(10, seed); fmt.Sprint(again) != fmt.Sprint(order) {
			t.Fatalf("seed %d: order %v, then %v", seed, order, again)
		}
	}
	if a, b := pairOrder(10, 1), pairOrder(10, 2); fmt.Sprint(a) == fmt.Sprint(b) {
		t.Errorf("seeds 1 and 2 gave the same order %v", a)
	}
	if order := pairOrder(7, 3); len(order) != 7 || strings.Count(fmt.Sprint(order), "true") != 3 {
		t.Errorf("n=7: order %v, want 3 parent-first slots of 7", order)
	}
}

func TestSignP(t *testing.T) {
	for _, tc := range []struct {
		won, decided int
		want         float64
	}{
		{9, 10, 11.0 / 1024},
		{10, 10, 1.0 / 1024},
		{0, 10, 1},
		{0, 0, 1},
		{6, 6, 1.0 / 64},
	} {
		if got := signP(tc.won, tc.decided); got != tc.want {
			t.Errorf("signP(%d, %d) = %v, want %v", tc.won, tc.decided, got, tc.want)
		}
	}
	lower := metricDef{Name: "cpu_us_per_op", Better: "lower"}
	parent := []float64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}
	change := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 3}
	if cell := compare(lower, parent, change); !strings.Contains(cell, ", 9/10 p=0.01074") {
		t.Errorf("cell %q, want 9/10 p=0.01074", cell)
	}
}
