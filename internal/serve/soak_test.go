package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"tradefl/internal/core"
	"tradefl/internal/fleet"
	"tradefl/internal/game"
)

// TestGatewaySoak64Tenants drives 64 concurrent tenants through the
// gateway (run with -race) and checks every streamed outcome against a
// direct core.RunBatch over the same instances: payoffs, potential and
// social welfare must be byte-identical — the gateway is a transport, not
// a different solver. JSON float round-trips are exact (Go marshals
// float64 at shortest round-trip precision), so equality is comparable
// bit-for-bit.
func TestGatewaySoak64Tenants(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		tenants      = 64
		perJob       = streamChunk + 1 // two fleet batches per job
		instanceN    = 4
		instanceSeed = 5000
	)
	s := startGateway(t, Options{Runners: 8, QueueDepth: 2 * tenants})
	base := "http://" + s.Addr()

	// The reference: the same corpus solved directly through core.RunBatch
	// with the gateway's fleet options.
	cfgs := make([][]*game.Config, tenants)
	refs := make([][]core.BatchResult, tenants)
	for ten := 0; ten < tenants; ten++ {
		cfgs[ten] = make([]*game.Config, perJob)
		for i := range cfgs[ten] {
			cfg, err := game.DefaultConfig(game.GenOptions{
				N:    instanceN,
				Seed: int64(instanceSeed + ten*perJob + i),
			})
			if err != nil {
				t.Fatalf("DefaultConfig: %v", err)
			}
			cfgs[ten][i] = cfg
		}
		refs[ten] = core.RunBatch(context.Background(), cfgs[ten], fleet.Options{})
	}

	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for ten := 0; ten < tenants; ten++ {
		wg.Add(1)
		go func(ten int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%02d", ten)
			spec := fmt.Sprintf(`{"generate":{"count":%d,"n":%d,"seed":%d}}`,
				perJob, instanceN, instanceSeed+ten*perJob)
			resp, created := postJSON(t, base+"/v1/jobs", tenant, spec)
			if resp.StatusCode != http.StatusAccepted {
				errs <- fmt.Errorf("%s: create status %d (%v)", tenant, resp.StatusCode, created)
				return
			}
			id, _ := created["id"].(string)
			st := awaitJob(t, base, id)
			if st["state"] != string(StateDone) {
				errs <- fmt.Errorf("%s: state %v (error: %v)", tenant, st["state"], st["error"])
				return
			}
			results, _ := st["results"].([]any)
			if len(results) != perJob {
				errs <- fmt.Errorf("%s: %d results, want %d", tenant, len(results), perJob)
				return
			}
			for i, raw := range results {
				got, _ := raw.(map[string]any)
				want := refs[ten][i]
				if err := compareToBatch(got, want, cfgs[ten][i]); err != nil {
					errs <- fmt.Errorf("%s instance %d: %w", tenant, i, err)
					return
				}
			}
		}(ten)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// compareToBatch asserts a gateway instance result is byte-identical to a
// core.RunBatch result over the same instance.
func compareToBatch(got map[string]any, want core.BatchResult, cfg *game.Config) error {
	if want.Fleet.Err != nil {
		return fmt.Errorf("reference solve failed: %v", want.Fleet.Err)
	}
	if plan, _ := got["plan"].(string); plan != want.Fleet.Plan.String() {
		return fmt.Errorf("plan %q, want %q", plan, want.Fleet.Plan)
	}
	if pot, _ := got["potential"].(float64); pot != want.Fleet.Potential {
		return fmt.Errorf("potential %v, want %v", pot, want.Fleet.Potential)
	}
	if sw, _ := got["socialWelfare"].(float64); sw != want.SocialWelfare {
		return fmt.Errorf("social welfare %v, want %v", sw, want.SocialWelfare)
	}
	pay, _ := got["payoffs"].([]any)
	if len(pay) != len(want.Payoffs) {
		return fmt.Errorf("%d payoffs, want %d", len(pay), len(want.Payoffs))
	}
	for i, v := range pay {
		if f, _ := v.(float64); f != want.Payoffs[i] {
			return fmt.Errorf("payoff %d = %v, want %v", i, f, want.Payoffs[i])
		}
	}
	prof, _ := got["profile"].([]any)
	if len(prof) != len(want.Fleet.Profile) {
		return fmt.Errorf("profile has %d strategies, want %d", len(prof), len(want.Fleet.Profile))
	}
	for i, raw := range prof {
		strat, _ := raw.(map[string]any)
		d, _ := strat["d"].(float64)
		f, _ := strat["f"].(float64)
		if d != want.Fleet.Profile[i].D || f != want.Fleet.Profile[i].F {
			return fmt.Errorf("strategy %d = (%v,%v), want (%v,%v)",
				i, d, f, want.Fleet.Profile[i].D, want.Fleet.Profile[i].F)
		}
	}
	_ = cfg
	return nil
}
