package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/world"
)

const (
	// fleetWorkers and fleetClients keep the load inside the 2-CPU
	// machine the benchmark is calibrated on.
	fleetWorkers = 2
	fleetClients = 2
	// fleetzEvery makes every 10th request of a client a GET /fleetz.
	fleetzEvery = 10
	// epochJobs is the timed phase: this many jobs on one warm service.
	// The count is fixed rather than the time, because the service's
	// per-job cost grows with the records and latency samples it keeps;
	// a fixed count makes every run pay for the same history.
	epochJobs = 50000
	// roundJobs caps the jobs a journaled service serves in the traced
	// run. Every cache-hit admission appends its full report to the WAL,
	// and only simulated completions trigger compaction, so a hot
	// service's journal grows without bound; once it compacts, each
	// snapshot rewrites every report, so bytes grow with the square of
	// the job count. A fixed cap keeps every round the same size.
	roundJobs = 2000
	// journaledRounds is how many capped journaled rounds the traced
	// run serves.
	journaledRounds = 3
	// virtualPerJob is the drive every job asks for: two legs
	// (baseline and faulted) of the service's default 8 s duration.
	virtualPerJob = 16 * time.Second
)

// fleetScenarios are the builtin keys the clients cycle over. Both fit
// the service's default 8 s drive.
var fleetScenarios = []string{"crash-recover", "camera-stall"}

// fleetJobs returns the workload's job keys: the builtin scenarios with
// their fault seeds perturbed by the benchmark seed.
func fleetJobs(seed uint64) []fleet.Job {
	var jobs []fleet.Job
	for _, name := range fleetScenarios {
		j := fleet.Job{Tenant: "bench", Scenario: name}
		if seed != defaultSeed {
			j.Seed = splitmix64(seed) | 1
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// server is an in-process fleet service behind fleet.Handler on a
// loopback listener.
type server struct {
	svc  *fleet.Service
	http *http.Server
	url  string
	done chan struct{}
	cl   *http.Client
	// tracer, when set, records a server-side span per request.
	tracer atomic.Pointer[recorder]
}

// startServer starts a service, journaled in journalDir unless it is
// empty.
func startServer(journalDir string) (*server, error) {
	svc, err := fleet.New(fleet.Config{Workers: fleetWorkers, Journal: journalDir})
	if err != nil {
		return nil, fmt.Errorf("starting fleet: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{
		svc:  svc,
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		cl:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: fleetClients}},
	}
	s.http = &http.Server{Handler: s.traced(fleet.Handler(svc))}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // http.ErrServerClosed once stop shuts it down
	}()
	return s, nil
}

// stop shuts the listener, waits for the serving goroutine and closes
// the service, which folds its state into a final snapshot.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: shutting down fleet listener: %v\n", err)
	}
	<-s.done
	s.cl.Transport.(*http.Transport).CloseIdleConnections()
	s.svc.Close()
}

// submit posts a job with ?wait=1 and returns its final record. parent
// names the client span the server-side span belongs to (-1: none).
func (s *server) submit(job fleet.Job, parent int) (fleet.Record, error) {
	body, err := json.Marshal(job)
	if err != nil {
		return fleet.Record{}, err
	}
	req, err := http.NewRequest(http.MethodPost, s.url+"/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		return fleet.Record{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	var rec fleet.Record
	data, err := s.do(req, http.StatusAccepted, parent)
	if err != nil {
		return rec, err
	}
	err = json.Unmarshal(data, &rec)
	return rec, err
}

// report fetches a finished job's report bytes.
func (s *server) report(id int64, parent int) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, s.url+"/jobs/"+strconv.FormatInt(id, 10)+"/report", nil)
	if err != nil {
		return nil, err
	}
	return s.do(req, http.StatusOK, parent)
}

func (s *server) fleetz(parent int) error {
	req, err := http.NewRequest(http.MethodGet, s.url+"/fleetz", nil)
	if err != nil {
		return err
	}
	_, err = s.do(req, http.StatusOK, parent)
	return err
}

// parentHeader carries the client span index to the traced handler.
const parentHeader = "Bench-Parent"

func (s *server) do(req *http.Request, want int, parent int) ([]byte, error) {
	if parent >= 0 {
		req.Header.Set(parentHeader, strconv.Itoa(parent))
	}
	resp, err := s.cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	return data, nil
}

type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// refused reports whether the service turned the request away under
// load (429 or 503) rather than failing it.
func refused(err error) bool {
	var se *statusError
	return errors.As(err, &se) && (se.code == http.StatusTooManyRequests || se.code == http.StatusServiceUnavailable)
}

// traced wraps the fleet handler: while a tracer is set, each request
// becomes a server-side span parented to the client span named in its
// header.
func (s *server) traced(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := s.tracer.Load()
		if rec == nil {
			next.ServeHTTP(w, r)
			return
		}
		parent := -1
		if p, err := strconv.Atoi(r.Header.Get(parentHeader)); err == nil {
			parent = p
		}
		start := rec.now()
		next.ServeHTTP(w, r)
		name := "fleet.handler"
		if r.URL.Path == "/fleetz" {
			name = "fleet.fleetz"
		}
		rec.add(name, start, rec.now(), parent)
	})
}

// fleetBench holds the workload's state between set-up and epochs.
type fleetBench struct {
	root string
	jobs []fleet.Job
	// warm holds each job's report from the first warm-up; every
	// served report must equal it byte for byte.
	warm [][]byte
	n    int
}

func (b *fleetBench) newDir() (string, error) {
	b.n++
	dir := filepath.Join(b.root, fmt.Sprintf("journal-%d", b.n))
	return dir, os.MkdirAll(dir, 0o755)
}

// setup starts a service, journaled in journalDir unless it is empty,
// and warms its result cache with every key, one client per key. Each
// warm-up report must equal the first set-up's.
func (b *fleetBench) setup(journalDir string) (*server, error) {
	s, err := startServer(journalDir)
	if err != nil {
		return nil, err
	}
	reports := make([][]byte, len(b.jobs))
	errs := make([]error, len(b.jobs))
	var wg sync.WaitGroup
	for i, job := range b.jobs {
		wg.Add(1)
		go func(i int, job fleet.Job) {
			defer wg.Done()
			rec, err := s.submit(job, -1)
			if err == nil && rec.State != fleet.StateDone {
				err = fmt.Errorf("warm-up job %s ended %s: %s", job.Scenario, rec.State, rec.Err)
			}
			if err == nil {
				reports[i], err = s.report(rec.ID, -1)
			}
			if err == nil && b.warm != nil && !bytes.Equal(reports[i], b.warm[i]) {
				err = fmt.Errorf("warm-up report for %s differs from the first set-up's", job.Scenario)
			}
			errs[i] = err
		}(i, job)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.stop()
		return nil, err
	}
	if b.warm == nil {
		b.warm = reports
	}
	return s, nil
}

// probeParams submits one params-line job for the default world to a
// throwaway service, outside every timed phase.
func (b *fleetBench) probeParams() (bool, string, error) {
	s, err := startServer("")
	if err != nil {
		return false, "", err
	}
	defer s.stop()
	rec, err := s.submit(fleet.Job{Tenant: "probe", Params: world.MarshalParams(world.DefaultScenarioConfig())}, -1)
	if err != nil {
		return false, err.Error(), nil
	}
	return rec.State == fleet.StateDone, rec.Err, nil
}

// tally counts requests and keeps the first few errors.
type tally struct {
	attempted int
	failed    int
	refused   int
	problems  []string
}

func (t *tally) fail(err error) {
	t.failed++
	if refused(err) {
		t.refused++
	}
	if len(t.problems) < 3 {
		t.problems = append(t.problems, err.Error())
	}
}

// epochResult is one timed stretch of jobs on one service.
type epochResult struct {
	phase
	tally
	jobs     int
	heapGrow float64 // bytes of live heap after GC, end minus start
	start    fleet.Status
	end      fleet.Status
}

// epoch serves jobs on s from two closed-loop clients, each sending
// its next request when the last one is answered; every fleetzEvery-th
// request of a client reads /fleetz. rec, when set, traces it.
func (b *fleetBench) epoch(s *server, jobs int, rec *recorder) epochResult {
	r := epochResult{start: s.svc.Fleetz()}
	s.tracer.Store(rec)
	defer s.tracer.Store(nil)
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)

	type clientOut struct {
		tally
		lat []float64
	}
	outs := make([]clientOut, fleetClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			for req, done := 1, 0; done < jobs/fleetClients; req++ {
				parent := -1
				o.attempted++
				if req%fleetzEvery == 0 {
					if rec != nil {
						parent = rec.add("client.fleetz", rec.now(), 0, -1)
					}
					if err := s.fleetz(parent); err != nil {
						o.fail(err)
					}
					if rec != nil {
						rec.finish(parent)
					}
					continue
				}
				k := (c + done) % len(b.jobs)
				done++
				if rec != nil {
					parent = rec.add("client.job", rec.now(), 0, -1)
				}
				t := time.Now()
				err := b.serve(s, k, parent)
				lat := float64(time.Since(t).Nanoseconds()) / 1e6
				if rec != nil {
					rec.finish(parent)
				}
				if err != nil {
					o.fail(err)
					continue
				}
				o.lat = append(o.lat, lat)
			}
		}(c)
	}
	wg.Wait()
	r.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	r.allocs = m1.Mallocs - m0.Mallocs
	r.bytes = m1.TotalAlloc - m0.TotalAlloc
	r.gcs = m1.NumGC - m0.NumGC
	r.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	r.heapGrow = float64(m2.HeapAlloc) - float64(m0.HeapAlloc)
	for _, o := range outs {
		r.stepsMS = append(r.stepsMS, o.lat...)
		r.attempted += o.attempted
		r.failed += o.failed
		r.refused += o.refused
		r.problems = append(r.problems, o.problems...)
		r.jobs += len(o.lat)
	}
	r.end = s.svc.Fleetz()
	return r
}

// count adds an epoch's requests to the outcome and reports failures.
func (r *epochResult) count(out *outcome) {
	out.attempted += r.attempted
	if r.failed > 0 {
		out.failed += r.failed
		fmt.Fprintf(os.Stderr, "fleet-hot: FAILED: %d requests, %d refused: %s\n",
			r.failed, r.refused, strings.Join(r.problems, "; "))
	}
}

// journaledRound serves roundJobs jobs on a fresh service recovered
// from a copy of the warm journal image, and returns the round with
// the journal directory's size at its end.
func (b *fleetBench) journaledRound(image string) (epochResult, int64, error) {
	dir, err := b.newDir()
	if err != nil {
		return epochResult{}, 0, err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(image, dir); err != nil {
		return epochResult{}, 0, err
	}
	s, err := startServer(dir)
	if err != nil {
		return epochResult{}, 0, err
	}
	defer s.stop()
	r := b.epoch(s, roundJobs, nil)
	size, err := dirSize(dir)
	return r, size, err
}

// serve runs one job end to end: submit and wait, check the record,
// fetch the report and compare it with the key's warm-up report.
func (b *fleetBench) serve(s *server, k int, parent int) error {
	rec, err := s.submit(b.jobs[k], parent)
	if err != nil {
		return err
	}
	if rec.State != fleet.StateDone {
		return fmt.Errorf("job %d ended %s: %s", rec.ID, rec.State, rec.Err)
	}
	rep, err := s.report(rec.ID, parent)
	if err != nil {
		return err
	}
	if !bytes.Equal(rep, b.warm[k]) {
		return fmt.Errorf("job %d (%s) report differs from its warm-up report", rec.ID, b.jobs[k].Scenario)
	}
	return nil
}

func copyDir(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// runFleet sets up setupRepeats in-memory services and times epochs
// of epochJobs jobs until the wall budget is spent, starting each later
// epoch on a freshly warmed service. With a recorder it times one
// untraced and one traced epoch on equally fresh services, then serves
// capped rounds on a journaled service for the journal's layer metrics.
func runFleet(out *outcome, seed uint64, seconds time.Duration, rec *recorder, work string) error {
	b := &fleetBench{root: work, jobs: fleetJobs(seed)}
	var setups []float64
	var s *server
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.stop()
		}
		t := time.Now()
		var err error
		if s, err = b.setup(""); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		out.attempted += len(b.jobs)
	}
	if seed == defaultSeed {
		for k, job := range b.jobs {
			key := "fleet-hot/" + job.Scenario
			if got := sha(b.warm[k]); got != pins[key] {
				out.fail("%s report hash %s, pinned %s", key, got, pins[key])
			}
		}
	}

	var plain []epochResult
	var wall time.Duration
	var liveHeap []float64
	for len(plain) == 0 || (rec == nil && wall < seconds) {
		if len(plain) > 0 {
			var err error
			if s, err = b.setup(""); err != nil {
				return err
			}
		}
		heap := startHeapSampler()
		r := b.epoch(s, epochJobs, nil)
		liveHeap = append(liveHeap, heap.finish()...)
		s.stop()
		r.count(out)
		plain = append(plain, r)
		wall += r.wall
		fmt.Fprintf(os.Stderr, "fleet-hot: epoch %d: %d jobs in %.3f s\n", len(plain), r.jobs, r.wall.Seconds())
	}

	rss, err := peakRSSMB()
	if err != nil {
		return err
	}

	ok, msg, err := b.probeParams()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fleet-hot: params-line probe ok=%v %s\n", ok, msg)

	var all phase
	jobs := 0
	for _, r := range plain {
		all.add(r.phase)
		jobs += r.jobs
	}
	sim := float64(jobs) * virtualPerJob.Seconds()
	if rec == nil {
		n := len(all.stepsMS)
		out.set("setup_s", median(setups), len(setups))
		out.set("live_heap_mb", median(liveHeap), len(liveHeap))
		out.set("sim_s_per_wall_s", sim/all.wall.Seconds(), n)
		out.set("allocs_per_sim_s", float64(all.allocs)/sim, n)
		out.set("alloc_mb_per_sim_s", float64(all.bytes)/(1<<20)/sim, n)
		out.set("op_p50_ms", median(all.stepsMS), n)
		return nil
	}
	out.setPercentile("op_p99_ms", all.stepsMS, 0.99)

	u := plain[0]
	out.set("fleet.jobs_per_s", float64(u.jobs)/u.wall.Seconds(), u.jobs)
	out.set("fleet.heap_kb_per_job", perJob(u.heapGrow, u.jobs)/1024, u.jobs)
	hits := float64(u.end.Fleet.CacheHits - u.start.Fleet.CacheHits)
	completed := float64(u.end.Fleet.Completed - u.start.Fleet.Completed)
	out.set("fleet.cache_hit_frac", hits/max(completed, 1), int(completed))
	out.set("fleet.rejected", float64(u.end.Fleet.Rejected-u.start.Fleet.Rejected), u.jobs)
	out.set("runtime.peak_rss_mb", rss, 1)
	out.set("runtime.gc_cycles", float64(u.gcs), 1)
	out.set("runtime.gc_pause_ms", float64(u.gcPause.Nanoseconds())/1e6, 1)
	params := 0.0
	if ok {
		params = 1
	}
	out.set("fleet.params_job_ok", params, 1)

	if s, err = b.setup(""); err != nil {
		return err
	}
	t := b.epoch(s, epochJobs, rec)
	s.stop()
	t.count(out)
	// Every served report was compared with its warm-up report, so the
	// traced epoch left the virtual plane identical unless it failed.
	identical := 1.0
	if t.failed > 0 {
		identical = 0
	}
	out.set("bench.vt_identical", identical, t.jobs)
	out.set("bench.tracing_overhead", t.wall.Seconds()/u.wall.Seconds(), 1)
	out.setPercentile("fleet.handler_ms_p50", spanMS(rec.spans, "fleet.handler"), 0.5)
	out.setPercentile("fleet.handler_ms_p99", spanMS(rec.spans, "fleet.handler"), 0.99)
	out.setPercentile("fleet.fleetz_ms_p50", spanMS(rec.spans, "fleet.fleetz"), 0.5)
	out.setPercentile("fleet.fleetz_ms_p90", spanMS(rec.spans, "fleet.fleetz"), 0.9)
	children := map[int][]span{}
	for _, sp := range rec.spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	var self []float64
	for i, sp := range rec.spans {
		if sp.Name == "client.job" {
			self = append(self, float64(selfTime(sp, children[i]).Nanoseconds())/1e6)
		}
	}
	out.set("fleet.client_self_ms_p50", median(self), len(self))

	// The journal: warm a journaled service once, then serve capped
	// rounds on copies of its journal.
	image, err := b.newDir()
	if err != nil {
		return err
	}
	if s, err = b.setup(image); err != nil {
		return err
	}
	s.stop()
	var disk, compactions, snap, wal []float64
	var appends, syncs float64
	var jwall time.Duration
	rjobs := 0
	for i := 0; i < journaledRounds; i++ {
		r, size, err := b.journaledRound(image)
		if err != nil {
			return err
		}
		r.count(out)
		js, j0 := r.end.Journal.Stats, r.start.Journal.Stats
		disk = append(disk, perJob(float64(size), r.jobs)/1024)
		compactions = append(compactions, float64(js.Compactions-j0.Compactions))
		wal = append(wal, float64(js.WALBytes)/1024)
		snap = append(snap, float64(size-js.WALBytes)/1024)
		appends += float64(js.Appends - j0.Appends)
		syncs += float64(js.Syncs - j0.Syncs)
		jwall += r.wall
		rjobs += r.jobs
	}
	out.set("journal.jobs_per_s", float64(rjobs)/jwall.Seconds(), rjobs)
	out.set("journal.disk_kb_per_job", median(disk), journaledRounds)
	out.set("journal.compactions", median(compactions), journaledRounds)
	out.set("journal.snapshot_kb", median(snap), journaledRounds)
	out.set("journal.wal_kb", median(wal), journaledRounds)
	out.set("journal.appends_per_job", perJob(appends, rjobs), rjobs)
	out.set("journal.syncs_per_job", perJob(syncs, rjobs), rjobs)
	return nil
}
