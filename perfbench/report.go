package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// report collects what a workload run measured.
type report struct {
	correct           bool
	attempted, failed int64
	// e2e holds the end-to-end metrics of the untraced window; traced
	// the same metrics measured with spans recorded (trace runs only),
	// so the tracing overhead shows beside them.
	e2e, traced map[string]metric
	// layers holds the per-layer metrics of a trace run.
	layers map[string]metric
	// notes name the base rungs of every derived number.
	notes []string
	// checks records the books, drain and connection checks.
	checks []string
	spans  *tracer
}

func newReport() report {
	return report{e2e: map[string]metric{}, traced: map[string]metric{}, layers: map[string]metric{}}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) check(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// e2eNames lists the end-to-end metrics in report order.
var e2eNames = []string{"setup_s", "rank_ns_per_elem", "scan_ns_per_elem", "rps", "p50_ms", "p99_ms", "ok_frac", "rss_peak_mb"}

func (r *report) print(w io.Writer, cfg config, env map[string]string) {
	fmt.Fprintf(w, "perfbench %s seed=%d window=%v trace=%v\n", cfg.workload, cfg.seed, cfg.window, cfg.trace)
	for _, k := range sortedKeys(env) {
		fmt.Fprintf(w, "  env %-10s %s\n", k, env[k])
	}
	for _, c := range r.checks {
		fmt.Fprintf(w, "  check %s\n", c)
	}
	if cfg.trace {
		fmt.Fprintf(w, "  %-18s %14s %14s %9s  %s\n", "end-to-end", "untraced", "traced", "overhead", "unit")
		for _, k := range e2eNames {
			u, t := r.e2e[k], r.traced[k]
			over := "-"
			if u.Value != 0 && k != "setup_s" && k != "rss_peak_mb" {
				over = fmt.Sprintf("%+.1f%%", 100*(t.Value-u.Value)/u.Value)
			}
			fmt.Fprintf(w, "  %-18s %14.6g %14.6g %9s  %s\n", k, u.Value, t.Value, over, u.Unit)
		}
		for _, k := range sortedKeys(r.layers) {
			m := r.layers[k]
			fmt.Fprintf(w, "  layer %-28s %14.6g %s\n", k, m.Value, m.Unit)
		}
	} else {
		for _, k := range e2eNames {
			m := r.e2e[k]
			fmt.Fprintf(w, "  %-18s %14.6g %s\n", k, m.Value, m.Unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note %s\n", n)
	}
	fmt.Fprintf(w, "  fail_frac %.6g (%d failed of %d attempted)\n", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
}

// save records the run, with its environment, under the output
// directory; trace runs also write their spans there.
func (r *report) save(cfg config, env map[string]string, res result) error {
	dir := filepath.Join(cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%v", cfg.workload, cfg.seed, cfg.trace)
	rec := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.window.Seconds(),
		"env": env, "result": res, "end_to_end": r.e2e, "notes": r.notes, "checks": r.checks,
	}
	if cfg.trace {
		// One spans file per workload, the latest trace run's: a traced
		// serve-small window alone writes tens of megabytes.
		spans := cfg.workload + ".spans.jsonl"
		rec["end_to_end_traced"] = r.traced
		rec["spans"] = spans
		if err := r.spans.write(filepath.Join(dir, spans)); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+".json"), append(b, '\n'), 0o644)
}

// recordEnv describes the machine and the code under test: nproc,
// GOMAXPROCS, CPU model, L3 size, Go version, and the commit — the git
// revision when the checkout is a repository, and always a hash of the
// Go sources, which identifies the code in a plain checkout too.
func recordEnv(root string) map[string]string {
	env := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"l3":         "unknown",
		"commit":     "none (not a git checkout)",
		"tree":       treeHash(root),
	}
	if b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size"); err == nil {
		env["l3"] = strings.TrimSpace(string(b))
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			env["commit"] = strings.TrimSpace(string(out))
		}
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeHash hashes every go.mod and .go file of the checkout outside
// dot directories, in path order.
func treeHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
