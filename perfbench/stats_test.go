package main

import (
	"reflect"
	"testing"
)

func TestCalmKeepsTheLeastStolenHalf(t *testing.T) {
	ds := []delta{{steal: 0.30}, {steal: 0.01}, {steal: 0.20}, {steal: 0}, {steal: 0.02}}
	var got []float64
	for _, d := range calmOf(ds, calmLimit(ds)) {
		got = append(got, d.steal)
	}
	if want := []float64{0.01, 0, 0.02}; !reflect.DeepEqual(got, want) {
		t.Fatalf("calm kept steals %v, want %v", got, want)
	}
	quiet := []delta{{}, {}, {}, {}}
	if n := len(calmOf(quiet, calmLimit(quiet))); n != len(quiet) {
		t.Fatalf("calm kept %d of %d intervals of a quiet host", n, len(quiet))
	}
}

func TestWithinSelectsByCompletionTime(t *testing.T) {
	l := lats{
		ns: []int64{50, 10, 40, 20, 30, 60},
		at: []int64{5, 10, 19, 20, 35, 50},
	}
	ds := []delta{{from: 10, to: 20}, {from: 30, to: 40}}
	if got, want := within(l, ds), []int64{10, 30, 40}; !reflect.DeepEqual(got, want) {
		t.Fatalf("within = %v, want %v", got, want)
	}
}
