package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"sync"
	"time"

	"mmreliable/internal/experiments"
	"mmreliable/internal/metro"
	"mmreliable/internal/nr"
	"mmreliable/internal/serve"
)

// oracleEnv, when set, turns the process into an oracle child: it reads an
// oracleJob on stdin, recomputes the workload's output and writes it to
// stdout. The parent sets MMR_INCREMENTAL=off for it, so the child runs
// the full-recompute engine, and every job pins Workers to 1.
const oracleEnv = "PERFBENCH_ORACLE"

// oracleTimeout bounds one oracle child so a run stays inside its time
// limit even when the oracle hangs.
const oracleTimeout = 120 * time.Second

// oracleJob says what to recompute.
type oracleJob struct {
	Kind string `json:"kind"` // city, daemon or repro
	Seed int64  `json:"seed,omitempty"`
	Tiny bool   `json:"tiny,omitempty"`
	// Frames is how far to advance the city.
	Frames int `json:"frames,omitempty"`
	// Snapshot is the daemon's end-of-run snapshot document.
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
	// Figures lists the experiment ids to regenerate.
	Figures []string `json:"figures,omitempty"`
}

// runOracle runs job in a fresh process of this executable under the
// full-recompute engine and returns its stdout.
func runOracle(job oracleJob) ([]byte, error) {
	in, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), oracleTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), oracleEnv+"=1", "MMR_INCREMENTAL=off")
	cmd.Stdin = bytes.NewReader(in)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("oracle %s: %w", job.Kind, err)
	}
	return out.Bytes(), nil
}

// oracleMain is the child's entry point.
func oracleMain(in io.Reader, out io.Writer) int {
	var job oracleJob
	if err := json.NewDecoder(in).Decode(&job); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench oracle: bad job:", err)
		return 2
	}
	var err error
	switch job.Kind {
	case "city":
		err = oracleCity(job, out)
	case "daemon":
		err = oracleDaemon(job, out)
	case "repro":
		err = oracleRepro(job, out)
	default:
		err = fmt.Errorf("unknown oracle kind %q", job.Kind)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench oracle:", err)
		return 1
	}
	return 0
}

func oracleCity(job oracleJob, out io.Writer) error {
	cfg := cityConfig(job.Seed, job.Tiny)
	cfg.Workers = 1
	m, err := metro.New(nr.Mu3(), cfg)
	if err != nil {
		return err
	}
	defer m.Close()
	for m.Frame() < job.Frames {
		m.AdvanceFrame()
	}
	_, err = fmt.Fprintf(out, "%016x", m.DigestSum())
	return err
}

// oracleDaemon restores the snapshot at one worker: Restore replays the
// journal from frame 0 and refuses a digest, RNG-position or arrival-state
// mismatch. The restored digest goes to out.
func oracleDaemon(job oracleJob, out io.Writer) error {
	s, err := serve.Restore(job.Snapshot, serve.Runtime{Workers: 1})
	if err != nil {
		return err
	}
	defer s.Close()
	_, err = fmt.Fprintf(out, "%016x", s.Metro().DigestSum())
	return err
}

func oracleRepro(job oracleJob, out io.Writer) error {
	cfg := experiments.Config{Seed: job.Seed, Quick: job.Tiny, Workers: 1}
	tables := map[string]string{}
	for _, id := range job.Figures {
		e, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		tables[id] = e.Run(cfg).String()
	}
	return json.NewEncoder(out).Encode(tables)
}

// verifyCity checks the city's end-of-run digest against a Workers=1
// full-recompute run of the same seed and frame count.
func verifyCity(job oracleJob, digest string) error {
	got, err := runOracle(job)
	if err != nil {
		return err
	}
	if string(got) != digest {
		return fmt.Errorf("digest %s, oracle %s", digest, got)
	}
	return nil
}

// verifyDaemon restores snapshot in a fresh full-recompute process at one
// worker and checks that the replay reaches digest.
func verifyDaemon(snapshot []byte, digest string) error {
	got, err := runOracle(oracleJob{Kind: "daemon", Snapshot: snapshot})
	if err != nil {
		return err
	}
	if string(got) != digest {
		return fmt.Errorf("digest %s, restored replay %s", digest, got)
	}
	return nil
}

// verifyRepro checks every table's bytes against the oracle's. The
// figures are split over two oracle processes, each at one worker, balanced
// by the figure times the timed pass measured (cost, in seconds).
func verifyRepro(seed int64, tiny bool, tables map[string]string, cost map[string]float64) error {
	ids := make([]string, 0, len(tables))
	for id := range tables {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return cost[ids[i]] > cost[ids[j]] })
	var jobs [2]oracleJob
	var load [2]float64
	for _, id := range ids {
		b := 0
		if load[1] < load[0] {
			b = 1
		}
		jobs[b].Figures = append(jobs[b].Figures, id)
		load[b] += cost[id]
	}
	var raws [2][]byte
	var errs [2]error
	var wg sync.WaitGroup
	for b := range jobs {
		jobs[b].Kind, jobs[b].Seed, jobs[b].Tiny = "repro", seed, tiny
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			raws[b], errs[b] = runOracle(jobs[b])
		}(b)
	}
	wg.Wait()
	want := map[string]string{}
	for b := range jobs {
		if errs[b] != nil {
			return errs[b]
		}
		if err := json.Unmarshal(raws[b], &want); err != nil {
			return fmt.Errorf("oracle output: %w", err)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		if tables[id] != want[id] {
			return fmt.Errorf("figure %s differs from the oracle:\n%s\noracle:\n%s", id, tables[id], want[id])
		}
	}
	return nil
}
