package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/ledger"
	"repro/internal/mpc"
	"repro/internal/service"
)

// engineConfig is the service.Config cmd/mrserve builds from its default
// flags plus -data and -ledger, so the benchmark serves jobs the way users
// run the daemon: info-level job logs, the default round-trace ring, the
// default cache sizes and one worker per CPU. The log goes to a file in dir
// instead of stderr so the cost of formatting and writing it stays in the
// measurement without flooding the caller's terminal.
func engineConfig(dir string, log io.Writer) service.Config {
	return service.Config{
		Workers:   1,
		Transport: "mem",
		TransportOpts: mpc.TransportOpts{
			BarrierTimeout: 2 * time.Minute,
			DialTimeout:    10 * time.Second,
			DialRetries:    3,
		},
		Results:   256,
		Instances: 64,
		DataDir:   filepath.Join(dir, "data"),
		LedgerDir: filepath.Join(dir, "ledger"),
		Logger:    slog.New(slog.NewTextHandler(log, &slog.HandlerOptions{Level: slog.LevelInfo})),
	}
}

// server is one mrserve instance behind a real loopback HTTP listener.
type server struct {
	dir    string
	log    *os.File
	engine *service.Engine
	http   *httptest.Server
	client *http.Client
}

// startServer opens a fresh engine (ledger, data directory) in a new
// directory under parent and serves it over loopback HTTP.
func startServer(parent string) (*server, error) {
	dir, err := os.MkdirTemp(parent, "server-")
	if err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := service.NewEngine(engineConfig(dir, log))
	ts := httptest.NewServer(service.NewServer(e))
	return &server{
		dir: dir, log: log, engine: e, http: ts,
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true},
		},
	}, nil
}

// close stops the listener, drains the engine (flushing its ledger) and
// removes the server's files.
func (s *server) close() {
	s.http.Close()
	s.client.CloseIdleConnections()
	s.engine.Close()
	s.log.Close()
	os.RemoveAll(s.dir)
}

// exchange is one HTTP request's outcome.
type exchange struct {
	status    int
	reqBytes  int64
	respBytes int64
	body      []byte
}

// do sends one request and reads the whole reply.
func (s *server) do(method, path string, body io.Reader, size int64) (exchange, error) {
	req, err := http.NewRequest(method, s.http.URL+path, body)
	if err != nil {
		return exchange{}, err
	}
	req.ContentLength = size
	resp, err := s.client.Do(req)
	if err != nil {
		return exchange{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return exchange{}, fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	return exchange{status: resp.StatusCode, reqBytes: size, respBytes: int64(len(b)), body: b}, nil
}

// jobReply is the part of a POST /v1/jobs reply the benchmark checks; the
// result is kept raw for the digest and decoded for the checks.
type jobReply struct {
	ID     string            `json:"id"`
	Status service.JobStatus `json:"status"`
	Source service.Source    `json:"source"`
	Error  string            `json:"error"`
	Result json.RawMessage   `json:"result"`
}

// jobOutcome is a checked job reply.
type jobOutcome struct {
	exchange
	id     string
	source service.Source
	raw    json.RawMessage
	result service.Result
}

// submit posts a waiting job and checks that it finished valid, from the
// expected source ("" accepts any).
func (s *server) submit(body []byte, want service.Source) (jobOutcome, error) {
	ex, err := s.do("POST", "/v1/jobs", bytes.NewReader(body), int64(len(body)))
	if err != nil {
		return jobOutcome{}, err
	}
	out := jobOutcome{exchange: ex}
	if ex.status/100 != 2 {
		return out, fmt.Errorf("job refused: HTTP %d: %s", ex.status, strings.TrimSpace(string(ex.body)))
	}
	var r jobReply
	if err := json.Unmarshal(ex.body, &r); err != nil {
		return out, fmt.Errorf("job reply: %w", err)
	}
	if r.Status != service.StatusDone {
		return out, fmt.Errorf("job %s: status %q (%s)", r.ID, r.Status, r.Error)
	}
	if err := json.Unmarshal(r.Result, &out.result); err != nil {
		return out, fmt.Errorf("job %s result: %w", r.ID, err)
	}
	if !out.result.Valid {
		return out, fmt.Errorf("job %s: %s returned an invalid solution: %s", r.ID, out.result.Alg, out.result.Summary)
	}
	if want != "" && r.Source != want {
		return out, fmt.Errorf("job %s: served from %q, want %q", r.ID, r.Source, want)
	}
	out.id, out.source, out.raw = r.ID, r.Source, r.Result
	return out, nil
}

// counters reads GET /metrics into name -> value for the plain counter
// lines (histogram lines are skipped).
func (s *server) counters() (map[string]float64, error) {
	ex, err := s.do("GET", "/metrics", nil, 0)
	if err != nil {
		return nil, err
	}
	if ex.status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", ex.status)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(ex.body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.ContainsAny(f[0], "{#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// ledgerHead reads GET /v1/ledger.
func (s *server) ledgerHead() (ledger.Head, error) {
	ex, err := s.do("GET", "/v1/ledger", nil, 0)
	if err != nil {
		return ledger.Head{}, err
	}
	var v service.LedgerView
	if err := json.Unmarshal(ex.body, &v); err != nil {
		return ledger.Head{}, fmt.Errorf("GET /v1/ledger: %w", err)
	}
	if !v.Enabled {
		return ledger.Head{}, fmt.Errorf("GET /v1/ledger: ledger disabled")
	}
	return v.Head, nil
}

// checkLedger verifies the whole chain over HTTP and, after flushing,
// that every appended record is durable.
func (s *server) checkLedger() error {
	ex, err := s.do("POST", "/v1/ledger/verify", nil, 0)
	if err != nil {
		return err
	}
	var rep ledger.VerifyReport
	if err := json.Unmarshal(ex.body, &rep); err != nil {
		return fmt.Errorf("ledger verify reply: %w", err)
	}
	if ex.status != http.StatusOK || !rep.OK {
		return fmt.Errorf("ledger verify failed: HTTP %d: %s", ex.status, rep.Error)
	}
	s.engine.SyncLedger()
	h, err := s.ledgerHead()
	if err != nil {
		return err
	}
	if h.Degraded || h.Persisted != h.Seq {
		return fmt.Errorf("ledger after flush: persisted %d of %d records (degraded=%v)", h.Persisted, h.Seq, h.Degraded)
	}
	return nil
}
