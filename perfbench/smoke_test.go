package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload for one measured second, and the traced
// mode of one, against a leedctl built from this checkout. A run fails on
// any error or history violation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts leedctl processes")
	}
	dir := t.TempDir()
	leedctl := filepath.Join(dir, "leedctl")
	build := exec.Command("go", "build", "-o", leedctl, "./cmd/leedctl")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build leedctl: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if trace && w.name != "server-read-mostly" {
				continue
			}
			w, trace := w, trace
			t.Run(w.name+map[bool]string{false: "", true: "/trace"}[trace], func(t *testing.T) {
				r := &reaper{}
				defer r.cleanup()
				res, err := run(r, config{w: w, seed: 1, seconds: 1, trace: trace, leedctl: leedctl, tmp: filepath.Join(dir, "tmp")})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := []string{"setup_s", "throughput", "requests_per_joule", "get_p50_us", "put_p50_us", "cpu_us_per_op", "server_rss_mb"}
				if trace {
					want = want[:0]
					for _, pl := range perLayer {
						want = append(want, pl.name)
					}
				}
				for _, name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("metric %s missing", name)
					}
				}
				r.cleanup()
				if ents, _ := os.ReadDir(filepath.Join(dir, "tmp")); len(ents) != 0 {
					t.Errorf("run left %d entries in its temp directory", len(ents))
				}
			})
		}
	}
}
