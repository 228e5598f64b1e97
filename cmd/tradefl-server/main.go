// Command tradefl-server runs the mechanism-as-a-service gateway: a
// long-running multi-tenant HTTP service over the TradeFL solver core.
// Clients submit coopetition-game jobs as JSON (explicit instances or a
// seeded generator request), follow solver convergence over SSE, and read
// back the mechanism outcome (strategies, payoffs, social welfare) — the
// same quantities a local `tradefl-sim -batch` run produces, byte for
// byte.
//
// Usage:
//
//	tradefl-server -listen 127.0.0.1:8080
//	tradefl-server -listen :8080 -tenant-rate 256
//	tradefl-server -diag-addr 127.0.0.1:9090 -trace-out trace.json   with observability
//
// Endpoints:
//
//	POST   /v1/jobs             submit an async job (202 + job ID)
//	GET    /v1/jobs/{id}        job status; results once terminal
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/stream follow progress as Server-Sent Events
//	POST   /v1/solve            synchronous solve for small instances
//	GET    /healthz             liveness + drain state
//
// Admission control bounds the blast radius of any one tenant (X-Tenant
// header): a global bounded queue, a per-tenant active-job quota and a
// per-tenant instance-token bucket, each rejecting with a distinct 429.
// The gateway runs serve.Options' defaults (4 runners, a 64-job queue,
// 8 active jobs per tenant, the auto plan); only the token rate is a flag,
// and it must be finite and positive.
// SIGINT/SIGTERM drains gracefully: new submissions get 503 while queued
// and running jobs finish (bounded by drainTimeout).
package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"tradefl/internal/cli"
	"tradefl/internal/obs"
	"tradefl/internal/serve"
)

// drainTimeout bounds the graceful drain after SIGINT/SIGTERM.
const drainTimeout = 30 * time.Second

func main() { cli.Main("tradefl-server", run) }

func run(args []string) error { return command().Exec(args) }

// command is tradefl-server's flags and body.
func command() cli.Command {
	fs := flag.NewFlagSet("tradefl-server", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "gateway listen address")
	tenantRate := fs.Float64("tenant-rate", 64, "per-tenant admitted instances per second (token bucket)")
	return cli.Command{Flags: fs, Run: func(ctx context.Context, _ *obs.DiagServer) error {
		srv, err := serve.New(*listen, serve.Options{TenantRate: *tenantRate})
		if err != nil {
			return err
		}
		fmt.Println("tradefl-server: gateway on", srv.Addr())

		done := make(chan error, 1)
		go func() { done <- srv.Serve() }()
		select {
		case err := <-done:
			return err
		case <-ctx.Done():
			// Graceful order: reject new submissions, let queued and running
			// jobs finish (bounded), then stop the listener.
			fmt.Println("tradefl-server: draining")
			if err := srv.Drain(drainTimeout); err != nil {
				return err
			}
			return <-done
		}
	}}
}
