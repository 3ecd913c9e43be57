package main

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/service"
)

// A workload is one traffic mix. Its inputs are generated from the
// workload seed by the constructor, before any timing; op then only sends
// them. Operation i is a pure function of (seed, i), so the same seed
// replays the same requests with the same results.
type workload interface {
	// warm builds a fresh server's instances and fills its caches. It
	// runs inside the timed set-up.
	warm(s *server, clients int) error
	// clients is the closed loop's size before the cap at NumCPU.
	clients() int
	// fillsHistory reports whether warm alone overflows the job history;
	// otherwise the set-up fills it first (fillHistory).
	fillsHistory() bool
	// op sends operation i and checks every reply.
	op(s *server, i int64) (opDone, error)
	// goldenOps is how many operations of the default seed the result
	// digest covers.
	goldenOps() int64
}

// opDone is what one checked operation returns.
type opDone struct {
	reqBytes, respBytes int64
	job                 jobOutcome
	jobBody             []byte
	// Ingest only: the uploaded instance id and the bytes uploaded.
	uploadID string
	upload   *uploadBody
}

// mixSeed derives a per-request seed from the workload seed, a stream tag
// and the operation index (splitmix64 finalizer).
func mixSeed(seed, stream uint64, i int64) uint64 {
	z := seed ^ stream*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// jobPrefix is a POST /v1/jobs body up to the job seed; appending the seed
// and "}" completes it.
func jobPrefix(spec service.InstanceSpec, alg string) []byte {
	inst, _ := json.Marshal(spec) // plain struct of numbers and strings
	return []byte(fmt.Sprintf(`{"instance":%s,"alg":%q,"wait":true,"seed":`, inst, alg))
}

func jobBody(prefix []byte, seed uint64) []byte {
	b := append(append([]byte(nil), prefix...), strconv.FormatUint(seed, 10)...)
	return append(b, '}')
}

// instanceFor picks the spec an algorithm runs on: the instance type of
// the same name (vertexcover, setcover-f, setcover-greedy), else the
// density graph.
func instanceFor(specs []service.InstanceSpec, alg core.Algorithm) (int, error) {
	for _, typ := range []string{alg.Name, "density"} {
		for i, s := range specs {
			if s.Type == typ && s.Provides(alg.Input) {
				return i, nil
			}
		}
	}
	return 0, fmt.Errorf("no instance provides %s for %s", alg.Input, alg.Name)
}

// instanceSpecs are the four generated instance types at size n.
func instanceSpecs(seed uint64, n int, c float64) []service.InstanceSpec {
	return []service.InstanceSpec{
		{Type: "density", N: n, C: c, Seed: mixSeed(seed, 1, 0)},
		{Type: "vertexcover", N: n, C: c, Seed: mixSeed(seed, 1, 1)},
		{Type: "setcover-f", N: n, C: c, F: 3, Seed: mixSeed(seed, 1, 2)},
		{Type: "setcover-greedy", N: n, Seed: mixSeed(seed, 1, 3)},
	}
}

// coldWeights is how many times each algorithm appears in one cold-mix
// cycle. At n=2000 ecolour costs about 48 ms and bmatching and matching
// about 10 ms, against 2–7 ms for the rest; these counts keep every
// algorithm under a quarter of busy time (WORKLOADS.md has the shares).
// They also place the 95th latency percentile inside the matching and
// bmatching runs: ecolour is 1 of 57 operations (1.8%) and they are 4
// (7%). With one client a percentile is the run time of the algorithm at
// that rank, so a percentile on the step up to ecolour would swing with
// every small change in speed.
var coldWeights = map[string]int{
	"ecolour": 1, "bmatching": 2, "matching": 2, "clique": 4,
}

const coldDefaultWeight = 6

// coldMix executes every job: each request carries a fresh job seed, so
// neither the result cache nor the batcher can answer it, and the time
// goes to core and mpc.
type coldMix struct {
	seed     uint64
	specs    []service.InstanceSpec
	cycle    []mixEntry
	wantFrom service.Source
}

type mixEntry struct {
	alg    string
	spec   int
	prefix []byte
}

func newColdMix(seed uint64, want service.Source) (*coldMix, error) {
	w := &coldMix{seed: seed, specs: instanceSpecs(seed, 2000, 0.3), wantFrom: want}
	// Interleave the algorithms: pass k takes every algorithm whose weight
	// exceeds k, so heavy algorithms are spread through the cycle.
	algs := core.Algorithms()
	for k := 0; ; k++ {
		added := false
		for _, a := range algs {
			weight := coldDefaultWeight
			if v, ok := coldWeights[a.Name]; ok {
				weight = v
			}
			if k >= weight {
				continue
			}
			idx, err := instanceFor(w.specs, a)
			if err != nil {
				return nil, err
			}
			w.cycle = append(w.cycle, mixEntry{alg: a.Name, spec: idx, prefix: jobPrefix(w.specs[idx], a.Name)})
			added = true
		}
		if !added {
			return w, nil
		}
	}
}

func (w *coldMix) body(i int64) []byte {
	e := w.cycle[i%int64(len(w.cycle))]
	return jobBody(e.prefix, mixSeed(w.seed, 2, i))
}

func (w *coldMix) op(s *server, i int64) (opDone, error) {
	b := w.body(i)
	out, err := s.submit(b, w.wantFrom)
	return opDone{reqBytes: out.reqBytes, respBytes: out.respBytes, job: out, jobBody: b}, err
}

// warm runs one full cycle, which builds the four instances and executes
// every algorithm once; warm-up operations use indices the measured run
// never reaches.
func (w *coldMix) warm(s *server, clients int) error {
	return runWarm(clients, int64(len(w.cycle)), func(i int64) error {
		_, err := w.op(s, warmBase+i)
		return err
	})
}

func (w *coldMix) goldenOps() int64 { return int64(len(w.cycle)) }

func (w *coldMix) fillsHistory() bool { return false }

// clients is 1 so that the run needs about one CPU of a small host, and
// load from other processes on the host moves its latency less
// (WORKLOADS.md, Arrival model).
func (w *coldMix) clients() int { return 1 }

// warmBase offsets warm-up operation indices away from measured ones.
const warmBase = 1 << 40

// jobHistory is the engine's default retention of finished jobs.
const jobHistory = 4096

// fillHistory executes as many tiny jobs as the engine retains, so a
// workload whose own jobs arrive slowly is measured with the full history
// a long-lived daemon holds: every retained executed job keeps its
// round-trace ring, which sets the live heap and so the GC cost.
func fillHistory(s *server, clients int, seed uint64) error {
	seed = mixSeed(seed, 7, 0)
	prefix := jobPrefix(service.InstanceSpec{Type: "density", N: 100, C: 0.3, Seed: seed}, "filtering")
	return runWarm(clients, jobHistory, func(i int64) error {
		_, err := s.submit(jobBody(prefix, mixSeed(seed, 8, i)), service.SourceRun)
		return err
	})
}

// hotKeys is how many distinct jobs hot-repeat cycles through: well
// inside the 256-entry result store, so every request after warm-up is a
// cache hit.
const hotKeys = 64

// hotWarmOps pushes warm-up past the engine's default 4096-job history so
// the measured run sees the steady state of a long-lived daemon, in which
// every submission also prunes the history.
const hotWarmOps = jobHistory + 512

// hotRepeat answers every measured request from the result cache, so the
// time goes to HTTP, JSON, Submit, the result store and the job history.
type hotRepeat struct {
	bodies   [][]byte
	order    []int
	wantFrom service.Source
}

func newHotRepeat(seed uint64, want service.Source) (*hotRepeat, error) {
	specs := instanceSpecs(seed, 500, 0.3)
	algs := core.Algorithms()
	w := &hotRepeat{wantFrom: want}
	for k := 0; k < hotKeys; k++ {
		a := algs[k%len(algs)]
		idx, err := instanceFor(specs, a)
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, jobBody(jobPrefix(specs[idx], a.Name), mixSeed(seed, 3, int64(k))))
	}
	w.order = rng.New(mixSeed(seed, 4, 0)).Perm(hotKeys)
	return w, nil
}

func (w *hotRepeat) op(s *server, i int64) (opDone, error) {
	b := w.bodies[w.order[i%hotKeys]]
	out, err := s.submit(b, w.wantFrom)
	return opDone{reqBytes: out.reqBytes, respBytes: out.respBytes, job: out, jobBody: b}, err
}

func (w *hotRepeat) warm(s *server, clients int) error {
	for k := range w.bodies {
		if _, err := s.submit(w.bodies[k], ""); err != nil {
			return err
		}
	}
	return runWarm(clients, hotWarmOps-hotKeys, func(i int64) error {
		_, err := w.op(s, i)
		return err
	})
}

func (w *hotRepeat) goldenOps() int64 { return hotKeys }

func (w *hotRepeat) fillsHistory() bool { return true }

// clients is 1 because two clients keep both CPUs of a small host busy
// with 0.3 ms requests: a few percent of them then take 1–4 ms, and the
// 95th percentile sits on the edge of that tail and swings with the
// host's load from run to run. With one client, a CPU stays free for the
// server's background work, and the percentile times the request path.
func (w *hotRepeat) clients() int { return 1 }

// Ingest sizes: n=2500 at c=0.2 is about 11.9k edges, roughly 350 KB of
// text per upload.
const (
	ingestN     = 2500
	ingestC     = 0.2
	ingestBases = 8
	ingestAlg   = "filtering"
	// ingestWarmOps uploads past the 64-entry instance cache so eviction
	// runs in steady state.
	ingestWarmOps = 64 + 8
)

// uploadBase is one generated graph in the canonical text encoding, split
// before its last edge line. Operation i uploads the base with the last
// edge's weight set to i+1, so every upload is a new graph with a new
// content id while the bytes before it are shared and never copied.
type uploadBase struct {
	prefix []byte
	u, v   int
	// state is SHA-256 after hashing prefix, so the content id of each
	// upload costs one short hash instead of hashing the whole body.
	state []byte
}

// uploadBody is one operation's upload: the shared prefix and its own
// last line.
type uploadBody struct {
	base *uploadBase
	tail []byte
}

func (b *uploadBody) size() int64 { return int64(len(b.base.prefix) + len(b.tail)) }

func (b *uploadBody) reader() io.Reader {
	return io.MultiReader(bytes.NewReader(b.base.prefix), bytes.NewReader(b.tail))
}

func (b *uploadBody) bytes() []byte {
	return append(append(make([]byte, 0, b.size()), b.base.prefix...), b.tail...)
}

// contentID is the id the server must assign: the body is already the
// canonical text encoding, so the id is the spec hash of the body's
// SHA-256 (service.SpecID for uploads).
func (b *uploadBody) contentID() (string, error) {
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(b.base.state); err != nil {
		return "", err
	}
	h.Write(b.tail)
	canon := "upload sha256=" + hex.EncodeToString(h.Sum(nil))
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:16]), nil
}

func newUploadBase(seed uint64) (*uploadBase, error) {
	r := rng.New(seed)
	g := graph.Density(ingestN, ingestC, r.Split())
	g.AssignUniformWeights(r.Split(), 1, 100)
	var buf bytes.Buffer
	if err := graph.Encode(&buf, g); err != nil {
		return nil, err
	}
	text := buf.Bytes()
	cut := bytes.LastIndexByte(text[:len(text)-1], '\n') + 1
	last := g.Edges[len(g.Edges)-1]
	b := &uploadBase{prefix: text[:cut], u: last.U, v: last.V}
	h := sha256.New()
	h.Write(b.prefix)
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return nil, err
	}
	b.state = state
	return b, nil
}

// ingest writes instances: every operation uploads a new graph (decode,
// content hash, spool to the data directory, mmap, cache insertion with
// eviction) and runs one cheap job on it, which appends a ledger record
// with an upload spec.
type ingest struct {
	seed     uint64
	bases    []*uploadBase
	wantFrom service.Source
}

func newIngest(seed uint64, want service.Source) (*ingest, error) {
	w := &ingest{seed: seed, wantFrom: want}
	for k := 0; k < ingestBases; k++ {
		b, err := newUploadBase(mixSeed(seed, 5, int64(k)))
		if err != nil {
			return nil, err
		}
		w.bases = append(w.bases, b)
	}
	return w, nil
}

func (w *ingest) body(i int64) *uploadBody {
	b := w.bases[i%int64(len(w.bases))]
	tail := fmt.Sprintf("e %d %d %s\n", b.u, b.v, strconv.FormatFloat(float64(i+1), 'g', -1, 64))
	return &uploadBody{base: b, tail: []byte(tail)}
}

func (w *ingest) op(s *server, i int64) (opDone, error) {
	body := w.body(i)
	want, err := body.contentID()
	if err != nil {
		return opDone{}, err
	}
	ex, err := s.do("POST", "/v1/instances", body.reader(), body.size())
	if err != nil {
		return opDone{}, err
	}
	d := opDone{reqBytes: ex.reqBytes, respBytes: ex.respBytes, upload: body}
	if ex.status != 201 {
		return d, fmt.Errorf("upload refused: HTTP %d: %s", ex.status, bytes.TrimSpace(ex.body))
	}
	var info service.InstanceInfo
	if err := json.Unmarshal(ex.body, &info); err != nil {
		return d, fmt.Errorf("upload reply: %w", err)
	}
	if info.ID != want {
		return d, fmt.Errorf("upload %d: server id %s, content id %s", i, info.ID, want)
	}
	if info.N != ingestN || !info.Mapped {
		return d, fmt.Errorf("upload %d: n=%d mapped=%v, want n=%d served from the data directory", i, info.N, info.Mapped, ingestN)
	}
	d.uploadID = info.ID
	d.jobBody = jobBody(jobPrefix(service.InstanceSpec{Type: "upload", ID: info.ID}, ingestAlg), mixSeed(w.seed, 6, i))
	out, err := s.submit(d.jobBody, w.wantFrom)
	d.job = out
	d.reqBytes += out.reqBytes
	d.respBytes += out.respBytes
	return d, err
}

func (w *ingest) warm(s *server, clients int) error {
	// The content-id rule the checks rely on must agree with the service's
	// own SpecID on this checkout.
	body := w.body(warmBase)
	want, err := body.contentID()
	if err != nil {
		return err
	}
	got, err := service.SpecID(service.InstanceSpec{Type: "upload", Data: body.bytes()})
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("content id rule disagrees with service.SpecID: %s vs %s", want, got)
	}
	return runWarm(clients, ingestWarmOps, func(i int64) error {
		_, err := w.op(s, warmBase+i)
		return err
	})
}

func (w *ingest) goldenOps() int64 { return 4 }

func (w *ingest) fillsHistory() bool { return false }

func (w *ingest) clients() int { return 2 }

// newWorkload builds a workload's inputs from its seed. A golden workload
// is the default-seed one whose first goldenOps results are digested; it
// accepts replies from any serving path, since the run's own traffic may
// already have cached some of them.
func newWorkload(name string, seed uint64, golden bool) (workload, error) {
	want := func(s service.Source) service.Source {
		if golden {
			return ""
		}
		return s
	}
	switch name {
	case "cold-mix":
		return newColdMix(seed, want(service.SourceRun))
	case "hot-repeat":
		return newHotRepeat(seed, want(service.SourceCache))
	case "ingest":
		return newIngest(seed, want(service.SourceRun))
	}
	return nil, fmt.Errorf("unknown workload %q (cold-mix, hot-repeat, ingest)", name)
}
