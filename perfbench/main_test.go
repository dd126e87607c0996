package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// unitsOf maps each metric name to its unit.
func unitsOf(defs []metricDef) map[string]string {
	out := map[string]string{}
	for _, d := range defs {
		out[d.name] = d.unit
	}
	return out
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := loadBenchmarkFile(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(e2e, unitsOf(endToEnd)) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, program reports %v", e2e, unitsOf(endToEnd))
	}
	if !reflect.DeepEqual(layer, unitsOf(perLayer)) {
		t.Errorf("per_layer in BENCHMARK.json = %v, program reports %v", layer, unitsOf(perLayer))
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, sortedKeys(workloads)) {
		t.Errorf("workloads in BENCHMARK.json = %v, program has %v", names, sortedKeys(workloads))
	}
}

// runOnce runs the command line and decodes its last output line.
func runOnce(t *testing.T, args ...string) output {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var o output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestShortRuns runs every workload briefly, untraced and traced: every
// named metric is emitted with its unit and the correctness check passes.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range sortedKeys(workloads) {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				o := runOnce(t, "--workload", name, "--seed", "3", "--seconds", "0.3",
					"--trace", trace, "--spans", filepath.Join(t.TempDir(), "spans.jsonl"))
				if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", o.Correct, o.Attempted, o.Failed)
				}
				want := unitsOf(endToEnd)
				if trace == "1" {
					want = unitsOf(perLayer)
				}
				got := map[string]string{}
				for k, v := range o.Metrics {
					got[k] = v.Unit
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("metrics %v, want %v", got, want)
				}
				if trace == "0" {
					for k, v := range o.Metrics {
						if v.Value <= 0 {
							t.Errorf("%s = %v, want > 0", k, v.Value)
						}
					}
				}
			})
		}
	}
}

// TestTamperedCheckFails corrupts one correctness digest (one placement
// decision, one merged suite) per workload: the run must report every
// operation as failed.
func TestTamperedCheckFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range sortedKeys(workloads) {
		t.Run(name, func(t *testing.T) {
			r, err := workloads[name](context.Background(), runConfig{seed: 3, seconds: 0.2, tamper: true})
			if err != nil {
				t.Fatal(err)
			}
			o := render(r, false)
			if o.Correct || o.Failed != o.Attempted || o.Attempted < 1 {
				t.Fatalf("tampered run: correct=%v attempted=%d failed=%d", o.Correct, o.Attempted, o.Failed)
			}
		})
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	hosts := []string{"a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3"}
	group := func(h string) string { return h[:1] }
	routes := genRoutes(7, hosts, group, 64)
	if !reflect.DeepEqual(routes, genRoutes(7, hosts, group, 64)) {
		t.Error("same seed gave different routes")
	}
	if reflect.DeepEqual(routes, genRoutes(8, hosts, group, 64)) {
		t.Error("different seeds gave the same routes")
	}
	kinds := map[routeKind]int{}
	for _, r := range routes {
		kinds[r.kind]++
		for _, d := range r.dsts {
			if group(d) == group(r.src) {
				t.Errorf("route %s→%s stays in its group", r.src, d)
			}
		}
	}
	if kinds[kindPoT] != 6 || kinds[kindMulticast] != 6 {
		t.Errorf("route mix %v, want 6 PoT and 6 multicast of 64", kinds)
	}
	waves := genWaves(7, routes, false, 4, 1000)
	if !reflect.DeepEqual(waves, genWaves(7, routes, false, 4, 1000)) {
		t.Error("same seed gave different waves")
	}
	for _, w := range waves {
		perKind := map[routeKind]int{}
		for _, b := range w {
			if b.n < 1 || b.n > maxBurst {
				t.Fatalf("burst of %d packets", b.n)
			}
			perKind[routes[b.route].kind] += b.n
		}
		if perKind[kindUnicast] != 800 || perKind[kindPoT] != 100 || perKind[kindMulticast] != 100 {
			t.Errorf("wave packets per kind %v, want 800/100/100", perKind)
		}
	}
	for _, w := range genWaves(7, routes, true, 4, 900) {
		for _, b := range w {
			if routes[b.route].kind == kindMulticast {
				t.Fatal("multicast burst in a unicast-only wave")
			}
		}
	}
	if !reflect.DeepEqual(genFlowPool(7, 16), genFlowPool(7, 16)) {
		t.Error("same seed gave different flow pools")
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	got := covered([][2]int64{{5, 10}, {0, 3}, {8, 12}, {2, 4}})
	if got != 11 { // [0,4) and [5,12)
		t.Errorf("covered = %d, want 11", got)
	}
}
