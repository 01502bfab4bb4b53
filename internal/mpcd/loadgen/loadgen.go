// Package loadgen is mpcd's deterministic load harness: seeded clients
// replay generated query scripts against a server — in-process or over
// real HTTP — and account for the run on a virtual clock derived from
// the model's own cost fields, never wall time. Two runs with the same
// configuration produce byte-identical reports, which is what lets the
// soak target assert anything at all: an epoch's digest either matches
// the last epoch's or the server broke determinism.
package loadgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// Config sizes a run.
type Config struct {
	Sessions int   // concurrent sessions to drive (default 8)
	Queries  int   // queries per session (default 16)
	Workers  int   // client goroutines; sessions are split index-disjoint (default 8)
	Seed     int64 // script seed; same seed, same scripts (default 1)
}

func (c Config) withDefaults() Config {
	if c.Sessions <= 0 {
		c.Sessions = 8
	}
	if c.Queries <= 0 {
		c.Queries = 16
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Workers > c.Sessions {
		c.Workers = c.Sessions
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Report is a run's deterministic summary. Every field is a pure
// function of (Config, server config): counters aggregate per-session
// results, and the virtual clock prices a query at 1 tick of overhead
// plus its MaxLoad (the model's cost: the busiest server's work), so
// latency and throughput are properties of the workload, not the host.
type Report struct {
	Sessions int `json:"sessions"`
	Queries  int `json:"queries"` // total issued
	OK       int `json:"ok"`

	Reused        int `json:"reused"`
	Repartitioned int `json:"repartitioned"`
	Gathered      int `json:"gathered"`

	Rejected map[string]int `json:"rejected"` // typed code → count

	Comm         int `json:"comm"`           // total facts shipped
	VirtualTicks int `json:"virtual_ticks"`  // sum of per-query costs
	VirtualSpan  int `json:"virtual_span"`   // busiest worker's ticks (makespan)
	MaxSessTicks int `json:"max_sess_ticks"` // slowest single session

	SessionDigests []string `json:"session_digests"` // per-session response-stream sha256, session order
	Digest         string   `json:"digest"`          // digest of the digests: the run's identity
}

// Client is the transport seam: Do issues one API request and returns
// the status code and raw response body.
type Client interface {
	Do(method, path string, body []byte) (int, []byte, error)
}

// queryRequest / queryResponse mirror mpcd's JSON surface. loadgen
// speaks the wire format rather than importing mpcd's internals so the
// HTTP client and the in-process client exercise the same bytes.
type queryRequest struct {
	Session string `json:"session"`
	Query   string `json:"query"`
	Lang    string `json:"lang,omitempty"`
	Out     string `json:"out,omitempty"`
	Budget  int    `json:"budget,omitempty"`
}

type queryResponse struct {
	Path    string `json:"path"`
	MaxLoad int    `json:"max_load"`
	Comm    int    `json:"comm"`
	Code    string `json:"code"` // set on error envelopes
}

type createRequest struct {
	ID        string `json:"id"`
	Generator string `json:"generator,omitempty"`
	N         int    `json:"n,omitempty"`
	M         int    `json:"m,omitempty"`
	Seed      int64  `json:"seed,omitempty"`

	Facts []string `json:"facts,omitempty"`
}

// The script's query mix: the anchor join, queries its distribution
// provably covers, an uncovered self-join, a Datalog program, a CQ¬,
// a starved budget (typed rejection), and a parse error. Weights sum
// to 100.
type scriptStep struct {
	weight int
	req    queryRequest
}

var steps = []scriptStep{
	{25, queryRequest{Query: "A(x, z) :- R(x, y), S(y, z)"}},
	{15, queryRequest{Query: "B(x) :- R(x, y), S(y, z)"}},
	{10, queryRequest{Query: "C(z, x) :- S(y, z), R(x, y)"}},
	{10, queryRequest{Query: "D(x, y) :- R(x, y)"}},
	{10, queryRequest{Query: "D(x, z) :- R(x, y), R(y, z)"}},
	{10, queryRequest{Query: "T(x, y) :- E(x, y)\nT(x, z) :- T(x, y), E(y, z)", Lang: "datalog", Out: "T"}},
	{5, queryRequest{Query: "N(x, y) :- R(x, y), not S(y)"}},
	{10, queryRequest{Query: "A(x, z) :- R(x, y), S(y, z)", Budget: 1}},
	{5, queryRequest{Query: "A(x :- R("}},
}

func pickStep(r *rand.Rand) queryRequest {
	n := r.Intn(100)
	for _, s := range steps {
		if n < s.weight {
			return s.req
		}
		n -= s.weight
	}
	return steps[0].req // unreachable: weights sum to 100
}

// sessionScript derives session i's create request and query sequence
// from the run seed alone. Mixing with a large odd constant decorrelates
// neighboring sessions without wall-clock or global state.
func sessionScript(cfg Config, i int) (createRequest, []queryRequest) {
	r := rand.New(rand.NewSource(cfg.Seed ^ (int64(i)+1)*0x5851F42D4C957F2D))
	id := fmt.Sprintf("lg%d", i)
	create := createRequest{ID: id}
	if r.Intn(2) == 0 {
		create.Generator, create.N = "join", 16+r.Intn(112)
	} else {
		create.Generator, create.N, create.M = "random-graph", 16, 32+r.Intn(96)
		create.Seed = int64(i)
	}
	qs := make([]queryRequest, cfg.Queries)
	for k := range qs {
		qs[k] = pickStep(r)
		qs[k].Session = id
	}
	return create, qs
}

// sessionResult is one session's deterministic outcome.
type sessionResult struct {
	ok, reused, repartitioned, gathered int
	rejected                            map[string]int
	comm, ticks                         int
	digest                              string
}

// runSession creates one session and replays its script, hashing every
// raw response body into the session digest.
func runSession(cfg Config, c Client, i int) (sessionResult, error) {
	res := sessionResult{rejected: make(map[string]int)}
	create, qs := sessionScript(cfg, i)
	body, err := json.Marshal(create)
	if err != nil {
		return res, err
	}
	status, raw, err := c.Do("POST", "/v1/sessions", body)
	if err != nil {
		return res, fmt.Errorf("session %d create: %w", i, err)
	}
	if status != 200 {
		return res, fmt.Errorf("session %d create: %d %s", i, status, raw)
	}
	h := sha256.New()
	for k, q := range qs {
		body, err := json.Marshal(q)
		if err != nil {
			return res, err
		}
		status, raw, err := c.Do("POST", "/v1/query", body)
		if err != nil {
			return res, fmt.Errorf("session %d query %d: %w", i, k, err)
		}
		_, _ = fmt.Fprintf(h, "%d\n", status) //lint:allow error-discard hash writers never fail
		_, _ = h.Write(raw)                   //lint:allow error-discard hash writers never fail
		var qr queryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			return res, fmt.Errorf("session %d query %d: undecodable body %q", i, k, raw)
		}
		res.ticks++ // a query costs one tick of overhead…
		if status == 200 {
			res.ok++
			res.comm += qr.Comm
			res.ticks += qr.MaxLoad // …plus the busiest server's work
			switch qr.Path {
			case "reused":
				res.reused++
			case "repartitioned":
				res.repartitioned++
			case "gathered":
				res.gathered++
			default:
				return res, fmt.Errorf("session %d query %d: unknown path %q", i, k, qr.Path)
			}
			continue
		}
		if qr.Code == "" {
			return res, fmt.Errorf("session %d query %d: untyped rejection %d %s", i, k, status, raw)
		}
		res.rejected[qr.Code]++
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	return res, nil
}

// Run drives cfg.Sessions sessions through c from cfg.Workers client
// goroutines, worker w owning sessions w, w+Workers, … (index-disjoint,
// so no result slot is shared). It returns the aggregated report; any
// transport error or protocol violation fails the whole run.
func Run(cfg Config, c Client) (*Report, error) {
	cfg = cfg.withDefaults()

	// One goroutine per session writing only its own slot (the index is
	// the closure's parameter, so the writes are provably disjoint); a
	// semaphore bounds actual concurrency to cfg.Workers. The makespan
	// is computed afterwards from the static round-robin assignment
	// (session i belongs to virtual client i mod Workers), so it is a
	// pure function of the results, never of scheduling.
	results := make([]sessionResult, cfg.Sessions)
	errs := make([]error, cfg.Sessions)
	sem := make(chan struct{}, cfg.Workers)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			results[i], errs[i] = runSession(cfg, c, i)
			<-sem
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("loadgen: session %d: %w", i, err)
		}
	}
	spans := make([]int, cfg.Workers)
	for i, r := range results {
		spans[i%cfg.Workers] += r.ticks
	}

	rep := &Report{
		Sessions: cfg.Sessions,
		Queries:  cfg.Sessions * cfg.Queries,
		Rejected: make(map[string]int),
	}
	all := sha256.New()
	for i, r := range results {
		rep.OK += r.ok
		rep.Reused += r.reused
		rep.Repartitioned += r.repartitioned
		rep.Gathered += r.gathered
		rep.Comm += r.comm
		rep.VirtualTicks += r.ticks
		if r.ticks > rep.MaxSessTicks {
			rep.MaxSessTicks = r.ticks
		}
		for code, n := range r.rejected {
			rep.Rejected[code] += n
		}
		rep.SessionDigests = append(rep.SessionDigests, r.digest)
		_, _ = fmt.Fprintf(all, "%d %s\n", i, r.digest) //lint:allow error-discard hash writers never fail
	}
	for _, s := range spans {
		if s > rep.VirtualSpan {
			rep.VirtualSpan = s
		}
	}
	rep.Digest = hex.EncodeToString(all.Sum(nil))
	return rep, nil
}

// Codes returns the rejection codes seen, sorted, for stable reports.
func (r *Report) Codes() []string {
	codes := make([]string, 0, len(r.Rejected))
	for c := range r.Rejected {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	return codes
}

// String renders the report as one line per metric, stable across runs.
func (r *Report) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "sessions=%d queries=%d ok=%d\n", r.Sessions, r.Queries, r.OK)
	fmt.Fprintf(&b, "paths: reused=%d repartitioned=%d gathered=%d\n", r.Reused, r.Repartitioned, r.Gathered)
	for _, c := range r.Codes() {
		fmt.Fprintf(&b, "rejected[%s]=%d\n", c, r.Rejected[c])
	}
	fmt.Fprintf(&b, "comm=%d virtual_ticks=%d virtual_span=%d max_sess_ticks=%d\n",
		r.Comm, r.VirtualTicks, r.VirtualSpan, r.MaxSessTicks)
	fmt.Fprintf(&b, "digest=%s\n", r.Digest)
	return b.String()
}
