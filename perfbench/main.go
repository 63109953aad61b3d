// Command perfbench is the repository benchmark. It generates one
// workload's inputs from a seed, measures the system end to end for a
// fixed window, checks every answer against serial-walk results
// computed at set-up, and prints one JSON result as the last line of
// standard output. With -trace 1 it also replays the same inputs down
// the layer ladder (serial → kernel → core → Engine → Server → wire →
// listrankd), timing each layer's public functions from outside and
// keeping spans in memory until the run ends.
//
//	perfbench -root <checkout> -workload engine-chase|serve-small|serve-reuse
//	          -seed N -seconds S -trace 0|1
//
// perfbench/run.sh builds this program and cmd/listrankd from the
// checkout and runs it; see perfbench/README.md for the workloads and
// the definition of every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload run receives.
type config struct {
	root     string // checkout root
	out      string // build and output directory inside the checkout
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	start    time.Time // process start, the origin of setup_s
}

// setupReps is how many times a run repeats its whole set-up; setup_s
// is their median, so one slow boot or page-fault storm does not set it.
const setupReps = 3

// timeSetups runs setup setupReps times, calling between after every
// repetition but the last (untimed), and returns the median duration
// less stolen time. The first repetition is timed from process start.
func timeSetups(start time.Time, setup, between func() error) (metric, error) {
	var ds []time.Duration
	for i := range setupReps {
		t0 := time.Now()
		if i == 0 {
			t0 = start
		}
		clk := startStealClock()
		err := setup()
		end := time.Now()
		clk.stop()
		if err != nil {
			return metric{}, err
		}
		ds = append(ds, clk.effective(t0, end))
		if i < setupReps-1 {
			if err := between(); err != nil {
				return metric{}, err
			}
		}
	}
	return metric{median(ds).Seconds(), "s"}, nil
}

// errIncorrect marks a run whose measurements completed but whose
// answers, books or drain did not check out: the result is printed
// with correct=false rather than withheld.
var errIncorrect = errors.New("incorrect")

func main() {
	os.Exit(run())
}

func run() int {
	start := time.Now()
	cfg := config{start: start}
	var seed int64
	var seconds, trace int
	flag.StringVar(&cfg.root, "root", "", "checkout root (holds go.mod and cmd/listrankd)")
	flag.StringVar(&cfg.workload, "workload", "", "engine-chase, serve-small or serve-reuse")
	flag.Int64Var(&seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 replays the inputs down the layer ladder and reports per-layer metrics")
	flag.Parse()
	if cfg.root == "" || seconds < 1 || (trace != 0 && trace != 1) || seed < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -root, -seconds >= 1, -trace 0|1 and -seed >= 0")
		return 2
	}
	if _, err := os.Stat(filepath.Join(cfg.root, "go.mod")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s is not a checkout: %v\n", cfg.root, err)
		return 2
	}
	cfg.out = filepath.Join(cfg.root, ".bench_build")
	cfg.seed = uint64(seed)
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	// A signal must not strand a daemon: stop it, then exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		stopAllDaemons()
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", s)
		os.Exit(1)
	}()
	defer stopAllDaemons()

	env := recordEnv(cfg.root)
	var rep report
	var err error
	switch cfg.workload {
	case "engine-chase":
		rep, err = runChase(cfg)
	case "serve-small":
		rep, err = runServe(cfg, serveSmall)
	case "serve-reuse":
		rep, err = runServe(cfg, serveReuse)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if err != nil && !errors.Is(err, errIncorrect) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.correct = err == nil
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
	}
	return finish(cfg, env, rep)
}

// finish prints the human-readable report and records the run under
// the output directory, then prints the JSON result line.
func finish(cfg config, env map[string]string, rep report) int {
	rep.print(os.Stdout, cfg, env)
	res := result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.e2e}
	if cfg.trace {
		res.Metrics = rep.layers
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	if err := rep.save(cfg, env, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: record run: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
