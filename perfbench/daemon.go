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
	"time"

	"pubtac"
	"pubtac/internal/pool"
	"pubtac/internal/serve"
)

// Response headers the daemon stamps on results (see internal/serve).
const (
	headerKey  = "X-Pubtac-Key"
	headerTier = "X-Pubtac-Store-Tier"
)

// jobHistory bounds the completed jobs a daemon keeps. Each kept job holds
// its progress events (hundreds per path), so with the default history of
// 1024 jobs peak memory would grow with the number of writes a run manages
// and track throughput instead of footprint.
const jobHistory = 64

// daemon is an in-process pubtacd: serve.New over a two-tier store in a
// fresh temporary directory, listening on loopback.
type daemon struct {
	dir   string
	store *serve.Store
	srv   *serve.Server
	hs    *http.Server
	grp   *pool.Group
	base  string
}

// startDaemon starts a daemon whose analyses use opts and whose memory tier
// holds memEntries results (0 = the store's default).
func startDaemon(opts []pubtac.Option, memEntries int) (*daemon, error) {
	dir, err := os.MkdirTemp("", "perfbench-store-")
	if err != nil {
		return nil, err
	}
	store, err := serve.NewStore(dir, memEntries)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv, err := serve.New(serve.Options{Store: store, SessionOptions: opts, MaxJobHistory: jobHistory})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{dir: dir, store: store, srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String()}
	d.grp, _ = pool.WithContext(context.Background())
	d.grp.Go(func() error {
		if err := d.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	})
	return d, nil
}

// close stops the listener, waits for the server and its jobs to end, and
// removes the store directory.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // an unclean shutdown still ends below
	_ = d.srv.Close()      // job errors were already reported to their callers
	_ = d.grp.Wait()
	os.RemoveAll(d.dir)
}

// newConn returns a client that keeps at most one connection to the
// daemon, so each client is one closed-loop caller.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// jobSpec names one benchmark and input vectors of an analysis request,
// as POST /v1/analyze takes them.
type jobSpec struct {
	Bench  string   `json:"bench"`
	Inputs []string `json:"inputs"`
}

// specsOf returns the request form of a batch.
func specsOf(jobs []pubtac.Job) []jobSpec {
	specs := make([]jobSpec, len(jobs))
	for i, j := range jobs {
		specs[i].Bench = j.Program.Name
		for _, in := range j.Inputs {
			specs[i].Inputs = append(specs[i].Inputs, in.Name)
		}
	}
	return specs
}

// jobsOf resolves a request to a batch the way the daemon does: a fresh
// benchmark instance per job.
func jobsOf(specs []jobSpec) ([]pubtac.Job, error) {
	jobs := make([]pubtac.Job, len(specs))
	for i, s := range specs {
		b, err := pubtac.Benchmark(s.Bench)
		if err != nil {
			return nil, err
		}
		jobs[i].Program = b.Program
		for _, name := range s.Inputs {
			in, err := b.Input(name)
			if err != nil {
				return nil, err
			}
			jobs[i].Inputs = append(jobs[i].Inputs, in)
		}
	}
	return jobs, nil
}

// analyzeRequest renders the POST /v1/analyze body of a batch, waiting for
// the result.
func analyzeRequest(specs []jobSpec) []byte {
	b, _ := json.Marshal(struct { // plain strings and slices always marshal
		Jobs []jobSpec `json:"jobs"`
		Wait bool      `json:"wait"`
	}{specs, true})
	return b
}

// analyze submits one analysis and waits for its result body.
func (d *daemon) analyze(c *http.Client, req []byte) (body []byte, key string, dur time.Duration, err error) {
	t0 := time.Now()
	resp, err := c.Post(d.base+"/v1/analyze", "application/json", bytes.NewReader(req))
	if err != nil {
		return nil, "", 0, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	dur = time.Since(t0)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("analyze: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get(headerKey), dur, err
}

// statusz is the part of GET /v1/statusz the benchmark reports.
type statusz struct {
	Computed uint64 `json:"computed"`
	Deduped  uint64 `json:"deduped"`
	Store    struct {
		WriteErrors uint64 `json:"write_errors"`
	} `json:"store"`
}

func (d *daemon) statusz(c *http.Client) (statusz, error) {
	var st statusz
	resp, err := c.Get(d.base + "/v1/statusz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statusz: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// get reads the stored result for key into buf and reports the tier that
// served it. Reusing buf keeps the client's allocations, and so its share
// of garbage collection, out of the read latency.
func (d *daemon) get(c *http.Client, key string, buf *bytes.Buffer) (tier string, dur time.Duration, err error) {
	t0 := time.Now()
	resp, err := c.Get(d.base + "/v1/results/" + key)
	if err != nil {
		return "", 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	dur = time.Since(t0)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("get %s: %s", key, resp.Status)
	}
	return resp.Header.Get(headerTier), dur, err
}

// read is one completed result read.
type read struct {
	at   float64 // when it completed, in seconds since its loop began
	ms   float64 // latency
	tier string  // store tier that served it
}

// readLoop issues closed-loop reads over one connection until deadline,
// each of a key picked by next, and checks every body against want.
func (d *daemon) readLoop(deadline time.Time, next func() string, want map[string][]byte, t *tally) []read {
	c := newConn()
	defer c.CloseIdleConnections()
	var (
		buf bytes.Buffer
		rs  []read
	)
	t0 := time.Now()
	for time.Now().Before(deadline) {
		key := next()
		tier, dur, err := d.get(c, key, &buf)
		if t.ok(err == nil && bytes.Equal(buf.Bytes(), want[key]), "read %s: err=%v, %d bytes", key, err, buf.Len()) {
			rs = append(rs, read{at: time.Since(t0).Seconds(), ms: float64(dur) / 1e6, tier: tier})
		}
	}
	return rs
}

// readStats are read latency quantiles and the read rate.
type readStats struct {
	p50, p90, p99 float64 // ms
	rps           float64
}

// summarize cuts reads, of one or more concurrent loops, into one-second
// windows. Each figure is the median, across the windows, of that window's
// latency quantile or read count, so a burst of host contention that spans
// fewer than half the windows moves none of them. Reads that span less
// than one window form one window.
func summarize(rs []read) readStats {
	if len(rs) == 0 {
		return readStats{}
	}
	end := 0.0
	for _, r := range rs {
		end = max(end, r.at)
	}
	n, span := int(end), 1.0
	if n == 0 {
		n, span = 1, end // all reads lie in the first, partial window
	}
	wins := make([][]float64, n)
	for _, r := range rs {
		if w := int(r.at); w < n {
			wins[w] = append(wins[w], r.ms)
		}
	}
	var p50s, p90s, p99s, rates []float64
	for _, w := range wins {
		rates = append(rates, float64(len(w))/span)
		if len(w) > 0 {
			p50s = append(p50s, quantile(w, 0.50))
			p90s = append(p90s, quantile(w, 0.90))
			p99s = append(p99s, quantile(w, 0.99))
		}
	}
	return readStats{p50: median(p50s), p90: median(p90s), p99: median(p99s), rps: median(rates)}
}
