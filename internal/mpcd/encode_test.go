package mpcd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/datalog"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
)

// sessionOf creates a session holding exactly inst, spelled through d —
// past the HTTP surface and rel.ParseFact, which cannot spell a name
// holding a comma, a parenthesis or invalid UTF-8.
func sessionOf(t testing.TB, s *Server, id string, d *rel.Dict, inst *rel.Instance) *Session {
	t.Helper()
	resp, aerr := s.createSession(&createRequest{ID: id, P: 3})
	if aerr != nil {
		t.Fatal(aerr)
	}
	sess := s.sessions[resp.Session]
	sess.dict, sess.facts = d, inst.Len()
	sess.cluster = mpc.NewCluster(sess.p)
	sess.cluster.LoadRoundRobin(inst)
	return sess
}

// checkReply runs one query and holds the encoded reply to the encoder
// it replaced: json.Marshal of the same QueryResponse with Output
// filled from SortedFacts and StringWith — here over a central
// evaluation of the session's whole data — plus the newline. Equal
// bytes, not equal documents. An empty wantPath accepts any path.
func checkReply(t testing.TB, sess *Session, req *queryRequest, wantPath string) *reply {
	t.Helper()
	resp, aerr := sess.run(req)
	if aerr != nil {
		t.Fatalf("%q: %v", req.Query, aerr)
	}
	if wantPath != "" && resp.Path != wantPath {
		t.Fatalf("%q served %s, want %s", req.Query, resp.Path, wantPath)
	}
	if resp.Output != nil {
		t.Fatalf("%q: run filled Output; the answer belongs in the body only", req.Query)
	}
	sq, aerr := sess.parseQuery(req.Lang, req.Query, req.Out)
	if aerr != nil {
		t.Fatal(aerr)
	}
	whole := sess.cluster.Output()
	var out *rel.Instance
	if sq.prog != nil {
		res, err := datalog.EvalQuery(sq.prog, whole, sq.outRel)
		if err != nil {
			t.Fatal(err)
		}
		out = res
	} else {
		out = cq.Output(sq.cq, whole)
	}
	want := resp.QueryResponse
	want.Output = make([]string, 0, out.Len())
	for _, f := range out.SortedFacts() {
		want.Output = append(want.Output, f.StringWith(sess.dict))
	}
	if want.Count != len(want.Output) {
		t.Fatalf("%q: count %d for %d facts", req.Query, want.Count, len(want.Output))
	}
	raw, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	if raw = append(raw, '\n'); !bytes.Equal(resp.body, raw) {
		t.Fatalf("%q: the streamed reply is not json.Marshal's\n got %q\nwant %q", req.Query, resp.body, raw)
	}
	return resp
}

// One name for every class of byte the fast path must not pass through
// — what encoding/json escapes (quote, backslash, the HTML three, a
// control byte, U+2028/U+2029), what it copies but the fast path does
// not look into (multi-byte UTF-8, DEL), what it replaces (invalid
// UTF-8) — and one plain name, which is the fast path.
var awkwardNames = []string{
	`q"uote`, `back\slash`, "<lt", "gt>", "a&b", "ctl\x01\n\t\b", "ls\u2028ps\u2029",
	"é世界🙂", "bad\xff\xfeutf", "trunc\xe4\xb8", "del\x7f", "a,b (c)", "plain",
}

func TestReplyIsEncodingJSONByteForByte(t *testing.T) {
	d := rel.NewDict()
	names := d.Values(awkwardNames...)
	inst := rel.NewInstance()
	awkwardRel := strings.Join(awkwardNames, "")
	for k, v := range names {
		next, after := names[(k+1)%len(names)], names[(k+2)%len(names)]
		inst.Add(rel.NewFact("R", v, next))
		inst.Add(rel.NewFact("S", next, after))
		inst.Add(rel.NewFact(awkwardRel, v, after))
	}
	// Values no dict has seen render as #n: negative, and past 2^53,
	// where a float64 would lose the last digit.
	const huge = rel.Value(1<<53 + 1)
	inst.Add(rel.NewFact("R", -5, huge))
	inst.Add(rel.NewFact("S", huge, -9))

	sess := sessionOf(t, New(Config{}), "enc", d, inst)
	const tc = "T(x, y) :- R(x, y)\nT(x, z) :- T(x, y), R(y, z)"
	for _, c := range []struct {
		req  queryRequest
		path string
	}{
		{queryRequest{Query: anchorQ}, PathRepartitioned},
		{queryRequest{Query: anchorQ}, PathReused},
		{queryRequest{Query: coveredQ1}, PathReused},
		{queryRequest{Query: "N(x, -7, 9007199254740993, 'q\"<&>') :- R(x, y)"}, PathReused},
		{queryRequest{Query: "E() :- R(x, y), S(y, z)"}, PathReused},                // arity 0
		{queryRequest{Query: "K(x) :- R(x, y), S(y, z), x != x"}, PathReused},       // empty
		{queryRequest{Query: uncoveredQ}, PathRepartitioned},                        // a second anchor
		{queryRequest{Query: "E() :- R(x, y), S(y, z)"}, PathRepartitioned},         // arity 0
		{queryRequest{Query: tc, Lang: LangDatalog, Out: "T"}, PathGathered},        // Datalog
		{queryRequest{Query: tc, Lang: LangDatalog, Out: awkwardRel}, PathGathered}, // an EDB relation, verbatim
		{queryRequest{Query: tc, Lang: LangDatalog, Out: "Absent"}, PathGathered},   // empty
		{queryRequest{Query: "O(x, z) :- R(x, y), S(y, z), not R(z, x)"}, PathGathered},
		{queryRequest{Query: "P() :- R(x, y), not S(x, x)"}, PathGathered},  // arity 0
		{queryRequest{Query: "Q(x) :- R(x, y), not R(x, y)"}, PathGathered}, // empty
	} {
		c.req.Session = sess.ID
		checkReply(t, sess, &c.req, c.path)
	}
}

// A Boolean head through the daemon: one fact when the join is
// non-empty, an empty array — never null — when it is not, on the
// reused path and straight off the wire.
func TestBooleanAnswerOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct {
		id, want string
		create   createRequest
	}{
		{"yes", `"count":1,"output":["E()"]}`, createRequest{Generator: "join", N: 300}},
		{"no", `"count":0,"output":[]}`, createRequest{Facts: []string{"R(a, b)", "S(c, d)"}}},
	} {
		c.create.ID = c.id
		if status, raw := do(t, "POST", ts.URL+"/v1/sessions", c.create); status != http.StatusOK {
			t.Fatalf("create %s: %d %s", c.id, status, raw)
		}
		query(t, ts.URL, c.id, anchorQ)
		status, raw := do(t, "POST", ts.URL+"/v1/query", queryRequest{Session: c.id, Query: "E() :- R(x, y), S(y, z)"})
		if status != http.StatusOK || !bytes.Contains(raw, []byte(`"path":"reused"`)) {
			t.Fatalf("E() on %s: %d %s", c.id, status, raw)
		}
		if !bytes.HasSuffix(raw, []byte(c.want+"\n")) {
			t.Errorf("E() on %s ends %s, want %s", c.id, raw, c.want)
		}
	}
}

// lateName is a name only an escape can spell, and lateQuery a query
// the anchor covers whose head interns its constant on first parse.
const lateName = `<a&"b>`

func lateQuery(c string) string { return "N(x, '" + c + "') :- R(x, y), S(y, z)" }

// A session whose names are all plain answers a plain query, so its
// facts go out unscanned; then a query interns a name that needs
// escaping. The check of the names interned since the last reply must
// find it: both replies are json.Marshal's bytes, and the session now
// scans every fact.
func TestReplyEscapesNameInternedLater(t *testing.T) {
	d := rel.NewDict()
	inst := rel.NewInstance()
	names := d.Values("a", "b", "c", "d")
	for k, v := range names {
		inst.Add(rel.NewFact("R", v, names[(k+1)%len(names)]))
		inst.Add(rel.NewFact("S", names[(k+1)%len(names)], v))
	}
	sess := sessionOf(t, New(Config{}), "late", d, inst)
	checkReply(t, sess, &queryRequest{Session: sess.ID, Query: anchorQ}, PathRepartitioned)
	if sess.names.escapes || sess.names.checked != d.Len() {
		t.Fatalf("after a plain reply the check is %+v over %d names", sess.names, d.Len())
	}
	checkReply(t, sess, &queryRequest{Session: sess.ID, Query: lateQuery(lateName)}, PathReused)
	if !sess.names.escapes {
		t.Fatalf("the check missed %q interned after the first reply: %+v", lateName, sess.names)
	}
	checkReply(t, sess, &queryRequest{Session: sess.ID, Query: anchorQ}, PathReused)
}
