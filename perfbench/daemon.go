package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mmreliable/internal/metro"
	"mmreliable/internal/serve"
)

// daemonConfig is daemon_churn's daemon as `mmserved -clusters 32 -churn
// 1.5 -mobile 0.25 -speed 1.4` configures it: 2 cells and 2 initial UEs
// per site, Workers 0 (= GOMAXPROCS), TimeScale 0 and a status line every
// frame.
func daemonConfig(seed int64, tiny bool) serve.Config {
	mc := metro.DefaultConfig()
	mc.Seed = seed
	mc.Clusters = 32
	mc.CellsPerCluster = 2
	mc.UEsPerCluster = 2
	mc.ChurnArrivalRate = 1.5
	mc.MobileFraction = 0.25
	mc.SpeedMPS = 1.4
	if tiny {
		mc.Clusters = 4
	}
	return serve.Config{Metro: mc, StatusEvery: 1}
}

// Open-loop request rates per host second. Scrapes run at 5/s so that a
// window holds enough of them for a p90. Blockage and detach start after
// ueSettle so that the client has attached UEs to target.
var daemonRates = []struct {
	op    string
	rate  float64
	after time.Duration
}{
	{"attach", 4, 0},
	{"blockage", 4, ueSettle},
	{"detach", 2, ueSettle},
	{"metrics", 5, 0},
	{"status", 2, 0},
}

// daemonSetupReps is larger than setupReps because one build takes about a
// millisecond, where a single slow build would move the median.
const daemonSetupReps = 15

// ueSettle is how long after its attach reply a client-attached UE is
// used as a blockage or detach target, so that it has been admitted.
const ueSettle = 500 * time.Millisecond

// request is one scheduled control-plane call.
type request struct {
	due  time.Duration // after the window starts
	op   string
	site int
	u    float64 // picks the target UE, and the blockage length
}

// daemonSchedule draws the open-loop schedule: one request every
// 1/(sum of rates) seconds, its operation drawn with probability
// proportional to its rate among those already started. Even spacing keeps
// the single client from queueing requests behind each other in bursts,
// which made the latency tails of a Poisson schedule swing from run to run.
func daemonSchedule(seed int64, sites int, window time.Duration) []request {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	total := 0.0
	for _, d := range daemonRates {
		total += d.rate
	}
	step := time.Duration(float64(time.Second) / total)
	var reqs []request
	for t := time.Duration(rng.Float64() * float64(step)); t < window; t += step {
		sum := 0.0
		for _, d := range daemonRates {
			if d.after <= t {
				sum += d.rate
			}
		}
		x := rng.Float64() * sum
		for _, d := range daemonRates {
			if d.after > t {
				continue
			}
			if x -= d.rate; x < 0 {
				reqs = append(reqs, request{due: t, op: d.op, site: rng.Intn(sites), u: rng.Float64()})
				break
			}
		}
	}
	return reqs
}

// statusTap receives the daemon's status stream on the loop goroutine and
// keeps when each frame's line arrived and how many UEs were resident.
type statusTap struct {
	at  []time.Time
	ues []int
}

func (w *statusTap) Write(p []byte) (int, error) {
	w.at = append(w.at, time.Now())
	n := 0
	if _, rest, ok := bytes.Cut(p, []byte(" ues=")); ok {
		if sp := bytes.IndexByte(rest, ' '); sp > 0 {
			n, _ = strconv.Atoi(string(rest[:sp]))
		}
	}
	w.ues = append(w.ues, n)
	return len(p), nil
}

// liveUE is a UE the client attached and has not detached.
type liveUE struct {
	site, id int
	ready    time.Time
}

func runDaemon(r *run) error {
	cfg := daemonConfig(r.o.seed, r.o.tiny)
	window := time.Duration(r.o.seconds * float64(time.Second))
	sched := daemonSchedule(r.o.seed, cfg.Metro.Clusters, window)

	var s *serve.Server
	var ln net.Listener
	var setups []float64
	for i := 0; i < daemonSetupReps; i++ {
		if s != nil {
			s.Close()
			ln.Close()
		}
		t0 := time.Now()
		built, err := serve.New(cfg)
		if err != nil {
			return err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			built.Close()
			return err
		}
		t1 := time.Now()
		r.tr.add("serve.New", 0, t0, t1)
		setups = append(setups, t1.Sub(t0).Seconds())
		s, ln = built, l
	}
	r.e2e["setup_s"] = median(setups)

	tap := &statusTap{at: make([]time.Time, 0, 1<<14), ues: make([]int, 0, 1<<14)}
	s.SetStatusWriter(tap)
	m := s.Metro()
	c0, s0, h0 := m.CountersTotal(), m.StationCountersTotal(), m.SketchTotal().UEs

	var handler http.Handler = s.Handler()
	win := r.tr.begin("window", 0)
	if r.tr != nil {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			t0 := time.Now()
			inner.ServeHTTP(w, req)
			r.tr.add("serve.http "+req.URL.Path, win, t0, time.Now())
		})
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	r.tr.startWindow()
	cpu0 := cpuSeconds()
	start := time.Now()
	go func() { ran <- s.Run(ctx) }()

	cl := &client{
		base: "http://" + ln.Addr().String(),
		http: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
	var cmdMs, scrapeMs []float64
	var live []liveUE
	var late time.Duration
	skipped := 0
	for _, q := range sched {
		due := start.Add(q.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late += max(time.Since(due), 0)
		var err error
		switch q.op {
		case "attach":
			var res serve.InjectResult
			if err = cl.post("/ue/attach", map[string]any{"site": q.site, "duration_s": 3600}, &res); err == nil {
				live = append(live, liveUE{site: q.site, id: res.UE, ready: time.Now().Add(ueSettle)})
			}
		case "blockage", "detach":
			i := pickReady(live, q.u, q.op == "detach")
			if i < 0 {
				skipped++
				continue
			}
			if q.op == "detach" {
				err = cl.post("/ue/detach", map[string]any{"site": live[i].site, "ue": live[i].id}, nil)
				live = append(live[:i], live[i+1:]...)
			} else {
				err = cl.post("/event/blockage", map[string]any{
					"site": live[i].site, "ue": live[i].id, "depth_db": 25, "duration_s": 0.05 + 0.15*q.u,
				}, nil)
			}
		case "metrics":
			var n int
			n, err = cl.get("/metrics", nil)
			cl.metricsBytes += n
			cl.scrapes++
		case "status":
			var st serve.Status
			_, err = cl.get("/status", &st)
		}
		lat := ms(time.Since(due))
		switch q.op {
		case "metrics":
			scrapeMs = append(scrapeMs, lat)
		case "attach", "blockage", "detach":
			cmdMs = append(cmdMs, lat)
			if err == nil {
				cl.cmdsOK++
			} else {
				cl.cmdsFailed++
			}
		}
		r.attempted++
		if err != nil {
			r.failed++
			r.tr.note("last_request_error", err.Error())
		}
	}
	if d := time.Until(start.Add(window)); d > 0 {
		time.Sleep(d)
	}
	stop := time.Now()
	cancel()
	if err := <-ran; err != nil {
		return err
	}
	wall := stop.Sub(start).Seconds()
	cpu := cpuSeconds() - cpu0
	r.tr.stopWindow()
	r.tr.end(win)
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	err := hs.Shutdown(shutCtx)
	shutCancel()
	if err != nil {
		return err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	cl.http.CloseIdleConnections()

	// Frames are the status lines written inside the window; a frame's time
	// is the interval since the previous line (or since the window began).
	var frameMs []float64
	ueFrames := 0
	prev := start
	for i, at := range tap.at {
		if at.After(stop) {
			break
		}
		frameMs = append(frameMs, ms(at.Sub(prev)))
		r.tr.add("serve.frame", win, prev, at)
		ueFrames += tap.ues[i]
		prev = at
	}
	frames := len(frameMs)
	r.attempted += frames
	res := m.Results()

	r.e2e["ue_frames_per_s"] = float64(ueFrames) / wall
	r.e2e["frame_ms_p50"] = quantile(frameMs, 0.5)
	r.e2e["frame_ms_p90"] = quantile(frameMs, 0.9)
	r.e2e["cmd_ms_p50"] = quantile(cmdMs, 0.5)
	r.e2e["cmd_ms_p90"] = quantile(cmdMs, 0.9)
	r.e2e["scrape_ms_p90"] = quantile(scrapeMs, 0.9)
	r.e2e["repro_s"] = wall / (float64(frames) * m.FramePeriod())
	r.e2e["sim_reliability"] = res.Diversity.Reliability
	r.e2e["sim_tput_gbps"] = res.Diversity.MeanThroughput / 1e9
	r.tr.note("requests", len(sched))
	r.tr.note("requests_skipped_no_target", skipped)
	r.tr.note("generator_late_ms_mean", ms(late)/float64(max(len(sched), 1)))
	r.tr.note("commands", len(cmdMs))
	r.tr.note("scrapes", len(scrapeMs))

	if r.tr != nil {
		zeroLayers(r)
		httpMs := r.tr.durations("serve.http ")
		r.layer["serve.http_ms_p50"] = quantile(httpMs, 0.5)
		r.layer["serve.http_ms_p99"] = quantile(httpMs, 0.99)
		r.layer["serve.metrics_bytes"] = float64(cl.metricsBytes) / float64(max(cl.scrapes, 1))
		r.layer["serve.cmds_ok"] = float64(cl.cmdsOK)
		r.layer["serve.cmds_failed"] = float64(cl.cmdsFailed)
		metroLayers(r, metroDelta{
			c0: c0, c1: m.CountersTotal(), s0: s0, s1: m.StationCountersTotal(),
			frames: frames, busy: stop.Sub(start), residentMean: float64(ueFrames) / float64(max(frames, 1)),
			harvested: m.SketchTotal().UEs - h0, cpuUtil: cpuUtil(cpu, wall),
		})
		if err := r.tr.layerShares(r, frames); err != nil {
			return err
		}
	}

	snap, err := s.SnapshotJSONDirect()
	if err != nil {
		return err
	}
	digest := fmt.Sprintf("%016x", m.DigestSum())
	s.Close()
	r.check("journal holds every accepted command", checkJournal(snap, cl.cmdsOK))
	sp := r.tr.begin("oracle.daemon", 0)
	r.check("snapshot replay vs full-recompute oracle", verifyDaemon(snap, digest))
	r.tr.end(sp)
	return nil
}

// pickReady returns the index of a live UE past its settle time: the
// oldest one for a detach, else the one u picks. -1 when none is ready.
func pickReady(live []liveUE, u float64, oldest bool) int {
	now := time.Now()
	n := 0
	for n < len(live) && !live[n].ready.After(now) {
		n++ // live is in attach order, so ready ones form a prefix
	}
	if n == 0 {
		return -1
	}
	if oldest {
		return 0
	}
	return min(int(u*float64(n)), n-1)
}

// checkJournal checks that the snapshot journaled exactly the commands the
// daemon accepted.
func checkJournal(snap []byte, accepted int) error {
	var doc struct {
		Journal []json.RawMessage `json:"journal"`
	}
	if err := json.Unmarshal(snap, &doc); err != nil {
		return err
	}
	if len(doc.Journal) != accepted {
		return fmt.Errorf("journal has %d commands, daemon accepted %d", len(doc.Journal), accepted)
	}
	return nil
}

// client is the workload's single HTTP client on one loopback connection.
type client struct {
	base string
	http *http.Client

	metricsBytes, scrapes int
	cmdsOK, cmdsFailed    int
}

func (c *client) post(path string, body any, out any) error {
	blob, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	_, err = readReply(resp, out)
	return err
}

func (c *client) get(path string, out any) (int, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	return readReply(resp, out)
}

// readReply drains and closes the body, decodes it into out when out is
// not nil, and turns a non-200 status into an error.
func readReply(resp *http.Response, out any) (int, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return len(body), err
	}
	if resp.StatusCode != http.StatusOK {
		return len(body), fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return len(body), err
		}
	}
	return len(body), nil
}
