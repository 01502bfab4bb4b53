package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"mpclogic/internal/cq"
	"mpclogic/internal/datalog"
	"mpclogic/internal/hypercube"
	"mpclogic/internal/mpc"
	"mpclogic/internal/mpcd"
	"mpclogic/internal/pc"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// The shadow pipeline performs every stage of an mpcd request itself,
// through the exported functions of the layers, with a span around
// each call. It keeps its own sessions, plan cache and cover cache, and
// follows internal/mpcd/session.go decision for decision — including
// the parking hash for facts outside the anchor's atoms. The traced
// pass compares every shadow reply with the server's, so the day
// session.go changes and this file does not, the run fails instead of
// reporting stage times for a pipeline the server no longer runs.

// shadowParkSalt mirrors mpcd's unexported parkSalt.
const shadowParkSalt = 0x7061726b6d706364

type shadowPlan struct {
	key      string
	lang     string
	gridable bool
	vars     int
	atoms    int
	shares   map[int]shadowShares
}

type shadowShares struct {
	shares map[string]int
	err    error
}

type shadowQuery struct {
	plan   *shadowPlan
	cq     *cq.CQ
	prog   *datalog.Program
	outRel string
	text   string
}

type shadowSession struct {
	id          string
	p           int
	seed        uint64
	dict        *rel.Dict
	cluster     *mpc.Cluster
	anchor      *shadowQuery
	parsed      map[string]*shadowQuery
	facts       int
	budgetTotal int
	budgetSpent int
}

type shadow struct {
	cfg      mpcd.Config
	tr       *tracer
	sessions map[string]*shadowSession
	plans    map[string]*shadowPlan
	covers   map[string]bool
}

func newShadow(cfg mpcd.Config, tr *tracer) *shadow {
	return &shadow{
		cfg:      cfg,
		tr:       tr,
		sessions: map[string]*shadowSession{},
		plans:    map[string]*shadowPlan{},
		covers:   map[string]bool{},
	}
}

// shadowReply is what the shadow predicts the server answers: the
// whole body for an executed query, status and typed code otherwise.
type shadowReply struct {
	status   int
	body     []byte // executed queries only
	code     string
	required int
	facts    int // session creates only
}

type shadowCreate struct {
	ID        string `json:"id"`
	P         int    `json:"p"`
	Budget    int    `json:"budget"`
	Generator string `json:"generator"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	Seed      int64  `json:"seed"`
}

type shadowQueryReq struct {
	Session string `json:"session"`
	Query   string `json:"query"`
	Lang    string `json:"lang"`
	Out     string `json:"out"`
	Budget  int    `json:"budget"`
}

// do dispatches one API request the way mpcd's mux does.
func (sh *shadow) do(method, path string, body []byte) (shadowReply, error) {
	switch {
	case method == "POST" && path == "/v1/sessions":
		var req shadowCreate
		if err := json.Unmarshal(body, &req); err != nil {
			return shadowReply{}, fmt.Errorf("shadow: create body: %w", err)
		}
		return sh.create(req)
	case method == "POST" && path == "/v1/query":
		var req shadowQueryReq
		if err := json.Unmarshal(body, &req); err != nil {
			return shadowReply{}, fmt.Errorf("shadow: query body: %w", err)
		}
		return sh.query(req)
	case method == "DELETE" && strings.HasPrefix(path, "/v1/sessions/"):
		id := strings.TrimPrefix(path, "/v1/sessions/")
		if sh.sessions[id] == nil {
			return shadowReply{status: 404, code: mpcd.CodeNotFound}, nil
		}
		delete(sh.sessions, id)
		return shadowReply{status: 200}, nil
	}
	return shadowReply{}, fmt.Errorf("shadow: no route for %s %s", method, path)
}

// generate materializes the data of a create request. The benchmark
// only issues the two generators below.
func generate(generator string, n, m int, seed int64) (*rel.Instance, error) {
	switch generator {
	case "join":
		return workload.JoinSkewFree(n), nil
	case "random-graph":
		if m <= 0 {
			m = 4 * n
		}
		return workload.RandomGraph(n, m, seed), nil
	}
	return nil, fmt.Errorf("generator %q is not one the benchmark issues", generator)
}

func (sh *shadow) create(req shadowCreate) (shadowReply, error) {
	p := req.P
	if p <= 0 {
		p = sh.cfg.P
	}
	budget := req.Budget
	if budget <= 0 {
		budget = sh.cfg.SessionBudget
	}
	var inst *rel.Instance
	var err error
	sh.tr.span("workload.generate", func() { inst, err = generate(req.Generator, req.N, req.M, req.Seed) })
	if err != nil {
		return shadowReply{}, fmt.Errorf("shadow: %w", err)
	}
	sess := &shadowSession{
		id:          req.ID,
		p:           p,
		seed:        sh.cfg.Seed,
		dict:        rel.NewDict(),
		parsed:      map[string]*shadowQuery{},
		facts:       inst.Len(),
		budgetTotal: budget,
	}
	sh.tr.span("mpc.load", func() {
		sess.cluster = mpc.NewCluster(p, mpc.WithCheckpoints())
		sess.cluster.LoadRoundRobin(inst)
	})
	if sh.sessions[req.ID] != nil {
		return shadowReply{status: 409, code: mpcd.CodeConflict}, nil
	}
	sh.sessions[req.ID] = sess
	return shadowReply{status: 200, facts: sess.facts}, nil
}

func (sh *shadow) parse(sess *shadowSession, lang, src, out string) (*shadowQuery, *shadowReply, error) {
	if lang == "" {
		lang = mpcd.LangCQ
	}
	rawKey := lang + "\x00" + out + "\x00" + src
	if sq, ok := sess.parsed[rawKey]; ok {
		return sq, nil, nil
	}
	sq := &shadowQuery{}
	var perr error
	switch lang {
	case mpcd.LangCQ:
		sh.tr.span("cq.parse", func() {
			var q *cq.CQ
			if q, perr = cq.Parse(sess.dict, src); perr != nil {
				return
			}
			if perr = q.Validate(); perr != nil {
				return
			}
			sq.cq, sq.outRel, sq.text = q, q.Head.Rel, q.String()
		})
	case mpcd.LangDatalog:
		if out == "" {
			return nil, &shadowReply{status: 400, code: mpcd.CodeBadRequest}, nil
		}
		sh.tr.span("datalog.parse", func() {
			var p *datalog.Program
			if p, perr = datalog.Parse(sess.dict, src); perr != nil {
				return
			}
			sq.prog, sq.outRel, sq.text = p, out, p.String()
		})
	default:
		return nil, nil, fmt.Errorf("shadow: language %q is not one the benchmark issues", lang)
	}
	if perr != nil {
		return nil, &shadowReply{status: 400, code: mpcd.CodeParse}, nil
	}
	key := lang + "\x00" + sq.outRel + "\x00" + sq.text
	pl, ok := sh.plans[key]
	if !ok {
		pl = &shadowPlan{key: key, lang: lang, shares: map[int]shadowShares{}}
		if sq.cq != nil {
			pl.gridable = !sq.cq.HasNegation()
			pl.vars = len(sq.cq.Vars())
			pl.atoms = len(sq.cq.Body)
		}
		sh.plans[key] = pl
	}
	sq.plan = pl
	sess.parsed[rawKey] = sq
	return sq, nil, nil
}

func (sh *shadow) coversFor(anchor, cand *shadowQuery) bool {
	a, c := anchor.plan, cand.plan
	if a.lang != mpcd.LangCQ || c.lang != mpcd.LangCQ || !a.gridable || !c.gridable {
		return false
	}
	if a.key == c.key {
		return true
	}
	if a.vars > sh.cfg.MaxCoverVars || c.vars > sh.cfg.MaxCoverVars ||
		a.atoms > sh.cfg.MaxCoverAtoms || c.atoms > sh.cfg.MaxCoverAtoms {
		return false
	}
	key := a.key + "\x01" + c.key
	if v, ok := sh.covers[key]; ok {
		return v
	}
	var v bool
	sh.tr.span("pc.covers", func() {
		var err error
		if v, _, err = pc.Covers(anchor.cq, cand.cq); err != nil {
			v = false
		}
	})
	sh.covers[key] = v
	return v
}

func (sh *shadow) query(req shadowQueryReq) (shadowReply, error) {
	sess := sh.sessions[req.Session]
	if sess == nil {
		return shadowReply{status: 404, code: mpcd.CodeNotFound}, nil
	}
	sq, rej, err := sh.parse(sess, req.Lang, req.Query, req.Out)
	if err != nil || rej != nil {
		if rej == nil {
			rej = &shadowReply{}
		}
		return *rej, err
	}
	qBudget := req.Budget
	if qBudget <= 0 {
		qBudget = sh.cfg.QueryBudget
	}
	resp := mpcd.QueryResponse{Session: sess.id, Query: sq.text}
	var out *rel.Instance
	switch {
	case sq.plan.gridable && sess.anchor != nil && sh.coversFor(sess.anchor, sq):
		out = sh.evalLocal(sess, sq.cq)
		resp.Path = mpcd.PathReused
	case sq.plan.gridable:
		maxLoad, total, rej, err := sh.repartition(sess, sq, qBudget)
		if err != nil || rej != nil {
			if rej == nil {
				rej = &shadowReply{}
			}
			return *rej, err
		}
		out = sh.evalLocal(sess, sq.cq)
		resp.Path, resp.MaxLoad, resp.Comm = mpcd.PathRepartitioned, maxLoad, total
	default:
		var union *rel.Instance
		sh.tr.span("mpc.union", func() { union = sess.cluster.Output() })
		cost := union.Len()
		if cost > qBudget {
			return shadowReply{status: 429, code: mpcd.CodeBudgetExceeded, required: cost}, nil
		}
		if remaining := sess.budgetTotal - sess.budgetSpent; cost > remaining {
			return shadowReply{status: 429, code: mpcd.CodeSessionBudget, required: cost}, nil
		}
		if sq.prog != nil {
			var err error
			sh.tr.span("datalog.eval", func() { out, err = datalog.EvalQuery(sq.prog, union, sq.outRel) })
			if err != nil {
				return shadowReply{status: 400, code: mpcd.CodeBadRequest}, nil
			}
		} else {
			sh.tr.span("cq.eval_central", func() { out = cq.Output(sq.cq, union) })
		}
		sess.budgetSpent += cost
		resp.Path, resp.MaxLoad, resp.Comm = mpcd.PathGathered, cost, cost
	}
	resp.BudgetSpent = sess.budgetSpent
	resp.BudgetRemaining = sess.budgetTotal - sess.budgetSpent
	sh.tr.span("rel.render", func() { resp.Output = renderFacts(out, sess.dict) })
	resp.Count = len(resp.Output)
	var body []byte
	var merr error
	sh.tr.span("mpcd.json", func() { body, merr = json.Marshal(&resp) })
	if merr != nil {
		return shadowReply{}, fmt.Errorf("shadow: encoding response: %w", merr)
	}
	body = append(body, '\n')
	sh.tr.value("response_kb", float64(len(body))/1024)
	sh.tr.value("comm", float64(resp.Comm))
	sh.tr.value("max_load", float64(resp.MaxLoad))
	return shadowReply{status: 200, body: body}, nil
}

// evalLocal evaluates q on every fragment, timing each server so the
// slowest one — what a real cluster would wait for — is on record.
func (sh *shadow) evalLocal(sess *shadowSession, q *cq.CQ) *rel.Instance {
	out := rel.NewInstance()
	var slowest time.Duration
	sh.tr.span("cq.eval_local", func() {
		for i := 0; i < sess.cluster.P(); i++ {
			start := time.Now()
			out.AddAll(cq.Output(q, sess.cluster.Server(i)))
			if d := time.Since(start); d > slowest {
				slowest = d
			}
		}
	})
	sh.tr.value("eval_local_max_server_ms", ms(slowest))
	return out
}

func (sh *shadow) repartition(sess *shadowSession, sq *shadowQuery, qBudget int) (maxLoad, total int, rej *shadowReply, err error) {
	sr, ok := sq.plan.shares[sess.p]
	if !ok {
		sh.tr.span("hypercube.shares", func() {
			sr.shares, _, sr.err = hypercube.OptimalShares(sq.cq, sess.p)
		})
		sq.plan.shares[sess.p] = sr
	}
	if sr.err != nil {
		return 0, 0, &shadowReply{status: 400, code: mpcd.CodeBadRequest}, nil
	}
	var union *rel.Instance
	sh.tr.span("mpc.union", func() { union = sess.cluster.Output() })
	var router mpc.Router
	var gerr error
	sh.tr.span("hypercube.route_count", func() {
		var grid *hypercube.Grid
		if grid, gerr = hypercube.NewGrid(sq.cq, sr.shares, sess.seed); gerr != nil {
			return
		}
		p, seed := uint64(sess.p), sess.seed
		router = mpc.RouterFunc(func(f rel.Fact) []int {
			if ts := grid.Targets(f); len(ts) > 0 {
				return ts
			}
			return []int{int(rel.Mix64(f.Hash()^seed^shadowParkSalt) % p)}
		})
		counts := make([]int, sess.p)
		union.Each(func(f rel.Fact) bool {
			for _, d := range router.Route(f) {
				counts[d]++
				total++
			}
			return true
		})
		for _, n := range counts {
			if n > maxLoad {
				maxLoad = n
			}
		}
	})
	if gerr != nil {
		return 0, 0, nil, fmt.Errorf("shadow: grid for %s: %w", sq.text, gerr)
	}
	sh.tr.value("facts", float64(union.Len()))
	sh.tr.value("replication", ratio(total, union.Len()))
	if maxLoad > qBudget {
		return 0, 0, &shadowReply{status: 429, code: mpcd.CodeBudgetExceeded, required: maxLoad}, nil
	}
	if remaining := sess.budgetTotal - sess.budgetSpent; total > remaining {
		return 0, 0, &shadowReply{status: 429, code: mpcd.CodeSessionBudget, required: total}, nil
	}
	var fresh *mpc.Cluster
	sh.tr.span("mpc.load", func() {
		fresh = mpc.NewCluster(sess.p, mpc.WithCheckpoints())
		fresh.LoadRoundRobin(union)
	})
	var stats mpc.RoundStats
	var rerr error
	sh.tr.span("mpc.round", func() {
		stats, rerr = fresh.RunRound(mpc.Round{Name: "repartition " + sq.text, Route: router})
	})
	if rerr != nil {
		return 0, 0, nil, fmt.Errorf("shadow: repartition round: %w", rerr)
	}
	if stats.MaxLoad != maxLoad || stats.TotalComm != total {
		return 0, 0, nil, fmt.Errorf("shadow: counted max load %d / comm %d but the round measured %d / %d",
			maxLoad, total, stats.MaxLoad, stats.TotalComm)
	}
	sess.cluster = fresh
	sess.anchor = sq
	sess.facts = union.Len()
	sess.budgetSpent += total
	return maxLoad, total, nil, nil
}
