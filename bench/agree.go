package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// manifest is BENCHMARK.json, the declaration this benchmark is checked
// against: metric names, units, directions and bounds.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// worsening is how far b is worse than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// agreeSeeds is how many seeds each set of -agree runs per workload.
const agreeSeeds = 3

// runAgree is the benchmark judging itself by the rule it will be judged
// by: two sets of runs of the same code, every workload, agreeSeeds seeds
// each. For every end-to-end metric the second set's median may not be worse
// than the first's by more than the metric's bound, and the spread of each
// set across its seeds (interquartile distance over median) may not exceed
// it. Set B visits the workloads in the opposite order to set A. It must be
// started from the root of the checkout, where BENCHMARK.json is.
func runAgree(seconds int) error {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// values[set][workload][metric] holds one value per seed.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for i := range m.Workloads {
			idx := i
			if set == 1 {
				idx = len(m.Workloads) - 1 - i
			}
			name := m.Workloads[idx].Name
			values[set][name] = map[string][]float64{}
			for k := 0; k < agreeSeeds; k++ {
				fmt.Fprintf(os.Stderr, "set %c  %-26s seed %d\n", 'A'+set, name, 1+k)
				cmd := exec.Command(exe, "-workload", name, "-seed", strconv.Itoa(1+k), "-seconds", strconv.Itoa(seconds))
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", name, 1+k, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("%s seed %d: %w", name, 1+k, err)
				}
				if !res.Correct || res.Failed != 0 {
					return fmt.Errorf("%s seed %d: correct=%v failed=%d of %d", name, 1+k, res.Correct, res.Failed, res.Attempted)
				}
				for metric, v := range res.Metrics {
					values[set][name][metric] = append(values[set][name][metric], v.Value)
				}
			}
		}
	}

	breaches := 0
	for _, w := range m.Workloads {
		fmt.Printf("\n%s\n%-24s %-6s %14s %14s %9s %7s %9s %9s\n", w.Name,
			"metric", "unit", "median A", "median B", "B worse", "bound", "spread A", "spread B")
		decl := append([]declared(nil), m.EndToEnd...)
		sort.Slice(decl, func(i, j int) bool { return decl[i].Name < decl[j].Name })
		for _, d := range decl {
			a, b := values[0][w.Name][d.Name], values[1][w.Name][d.Name]
			worse := worsening(median(a), median(b), d.Better)
			line := fmt.Sprintf("%-24s %-6s %14.6g %14.6g %8.2f%% %6.1f%%", d.Name, d.Unit, median(a), median(b), 100*worse, 100*d.Bound)
			sa, sb := spread(a), spread(b)
			line += fmt.Sprintf(" %8.2f%% %8.2f%%", 100*sa, 100*sb)
			if worse > d.Bound || sa > d.Bound || sb > d.Bound {
				breaches++
				line += "  BREACH"
			}
			fmt.Println(line)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metric/workload pairs outside their bound", breaches)
	}
	fmt.Println("\nevery metric on every workload agrees within its bound")
	return nil
}
