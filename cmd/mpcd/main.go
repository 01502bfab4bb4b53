// Command mpcd runs the query daemon: an HTTP/JSON service over the
// MPC engine with sessions, parallel-correctness distribution reuse,
// and MaxLoad admission control (see internal/mpcd).
//
// Usage:
//
//	mpcd -addr 127.0.0.1:7443
//	mpcd -addr 127.0.0.1:0 -checkpoint-dir /var/lib/mpcd
//
// The daemon prints one line to stdout before serving:
//
//	mpcd listening on http://127.0.0.1:7443
//
// which is how the e2e harness (and scripts) learn the bound address
// when -addr ends in :0.
//
// With -checkpoint-dir, a snapshot already in the directory — the one
// file manifest.json — is restored at startup: every session warm,
// byte-identical resume; no snapshot there (mpcd.ErrNoSnapshot) is a
// fresh start, one that does not load is fatal. SIGINT/SIGTERM drains
// the server (in-flight queries finish, new ones get typed 503s),
// writes a fresh snapshot over the old one by a rename, and exits 0.
// Without it, signals just drain and exit.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"mpclogic/internal/mpcd"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7443", "listen address (port 0 picks a free port)")
	p := flag.Int("p", 8, "default cluster width for new sessions")
	seed := flag.Uint64("seed", 1, "routing seed (a restore overrides this with the snapshot's)")
	queryBudget := flag.Int("query-budget", 1<<20, "default per-query max-load budget")
	sessionBudget := flag.Int("session-budget", 1<<24, "default per-session communication budget")
	maxConcurrent := flag.Int("max-concurrent", 16, "queries executing at once")
	maxQueued := flag.Int("max-queued", 1024, "queries waiting for a slot before typed overload rejections")
	maxSessions := flag.Int("max-sessions", 65536, "live session cap")
	ckptDir := flag.String("checkpoint-dir", "", "snapshot directory: its one file, manifest.json, is restored at startup if present and replaced on shutdown")
	noReuse := flag.Bool("no-reuse", false, "disable distribution reuse (always-repartition baseline)")
	flag.Parse()

	cfg := mpcd.Config{
		P:             *p,
		Seed:          *seed,
		QueryBudget:   *queryBudget,
		SessionBudget: *sessionBudget,
		MaxConcurrent: *maxConcurrent,
		MaxQueued:     *maxQueued,
		MaxSessions:   *maxSessions,
		DisableReuse:  *noReuse,
		SnapshotDir:   *ckptDir,
	}

	srv := mpcd.New(cfg)
	if *ckptDir != "" {
		switch restored, err := mpcd.LoadSnapshot(*ckptDir, cfg); {
		case err == nil:
			srv = restored
			fmt.Fprintf(os.Stderr, "mpcd: restored %d sessions from %s\n", srv.Sessions(), *ckptDir)
		case !errors.Is(err, mpcd.ErrNoSnapshot):
			fmt.Fprintf(os.Stderr, "mpcd: restoring %s: %v\n", *ckptDir, err)
			os.Exit(1)
		}
	}

	// The handler is in place before the listen line is printed, so a
	// signal sent the moment it is read drains like any other.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpcd: listen %s: %v\n", *addr, err)
		os.Exit(1)
	}
	fmt.Printf("mpcd listening on http://%s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "mpcd: %v: draining\n", s)
		srv.Drain()
		if *ckptDir != "" {
			if err := srv.SaveSnapshot(*ckptDir); err != nil {
				fmt.Fprintf(os.Stderr, "mpcd: snapshot: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "mpcd: snapshot written to %s\n", *ckptDir)
		}
		_ = httpSrv.Close() // shutting down anyway
		os.Exit(0)
	case err := <-done:
		fmt.Fprintf(os.Stderr, "mpcd: serve: %v\n", err)
		os.Exit(1)
	}
}
