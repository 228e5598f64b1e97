package main

import (
	"encoding/json"
	"fmt"

	"tradefl/internal/game"
	"tradefl/internal/serve"
)

// Inputs are a pure function of the benchmark seed: the same seed yields
// byte-identical request bodies and transaction plans, and the program
// only ever sees these generated inputs.

// mixSeed spreads a benchmark seed (and a stream number, so workloads do
// not share instances) over 40 bits; instance seeds are offsets from it
// and stay exact in JSON numbers.
func mixSeed(seed int64, stream uint64) int64 {
	x := uint64(seed) + stream*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x>>24) + 1
}

// syncOrgs is the N cycle of edge_sync requests.
var syncOrgs = []int{4, 5, 6}

// syncBodies builds count distinct POST /v1/solve bodies, each one
// explicit games[] instance (~1.5 KB), N cycling over syncOrgs.
func syncBodies(seed int64, count int) ([][]byte, error) {
	base := mixSeed(seed, 1)
	bodies := make([][]byte, count)
	for i := range bodies {
		cfg, err := game.DefaultConfig(game.GenOptions{N: syncOrgs[i%len(syncOrgs)], Seed: base + int64(i)})
		if err != nil {
			return nil, fmt.Errorf("sync corpus instance %d: %w", i, err)
		}
		raw, err := json.Marshal(serve.JobSpec{Games: []serve.GameSpec{{Config: *cfg}}})
		if err != nil {
			return nil, err
		}
		bodies[i] = raw
	}
	return bodies, nil
}

// jobInstances is the size of every generated job.
const jobInstances = 64

// jobBody is the k-th POST /v1/jobs body of one client: a server-side
// generate request whose instance seeds no other job of the run shares, N
// cycling over orgs.
func jobBody(seed int64, client, k int, orgs []int) []byte {
	// Instance seeds are jobSeed..jobSeed+63; stepping by the job size
	// keeps jobs disjoint, and clients are a million jobs apart.
	jobSeed := mixSeed(seed, 2) + int64(client*1_000_000+k)*jobInstances
	raw, err := json.Marshal(serve.JobSpec{Generate: &serve.GenSpec{
		Count: jobInstances, N: orgs[k%len(orgs)], Seed: jobSeed,
	}})
	if err != nil {
		panic(err) // a struct of ints always marshals
	}
	return raw
}
