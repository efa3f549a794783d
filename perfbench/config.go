package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"dnnjps/internal/netsim"
)

// workloadsJSON records every constant the workloads run with, so a
// later change that wants different constants has to change this file
// and re-measure its baseline.
//
//go:embed workloads.json
var workloadsJSON []byte

type config struct {
	SetupRepeats    int       `json:"setup_repeats"`
	SetupMinSeconds float64   `json:"setup_min_seconds"`
	TailLadder      []float64 `json:"tail_ladder"`
	MinBeyondTail   int       `json:"min_beyond_tail"`
	Workloads       struct {
		Pipeline pipelineConfig `json:"pipeline"`
		Serve    serveConfig    `json:"serve"`
		Plan     planConfig     `json:"plan"`
	} `json:"workloads"`
}

type pipelineConfig struct {
	Model          string  `json:"model"`
	N              int     `json:"n"`
	Channel        string  `json:"channel"`
	TimeScale      float64 `json:"time_scale"`
	InputPool      int     `json:"input_pool"`
	LatencyLimitMs float64 `json:"latency_limit_ms"`
}

type serveConfig struct {
	Model          string  `json:"model"`
	Channel        string  `json:"channel"`
	TimeScale      float64 `json:"time_scale"`
	Cuts           []int   `json:"cuts"`
	Tenants        int     `json:"tenants"`
	RatePerS       float64 `json:"rate_per_s"`
	ServerWorkers  int     `json:"server_workers"`
	BatchWindowMs  float64 `json:"batch_window_ms"`
	BatchMax       int     `json:"batch_max"`
	ShedWatermark  int     `json:"shed_watermark"`
	InputPool      int     `json:"input_pool"`
	LatencyLimitMs float64 `json:"latency_limit_ms"`
}

type planConfig struct {
	Models     []string `json:"models"`
	MbpsMin    float64  `json:"mbps_min"`
	MbpsMax    float64  `json:"mbps_max"`
	NMin       int      `json:"n_min"`
	NMax       int      `json:"n_max"`
	ChainShare float64  `json:"chain_share"`
	// The depth-2 chain: an edge box at ChainEdgeScale of the cloud's
	// speed, behind a backhaul at ChainBackhaulShare of the uplink rate.
	ChainEdgeScale       float64 `json:"chain_edge_scale"`
	ChainBackhaulShare   float64 `json:"chain_backhaul_share"`
	ChainBackhaulSetupMs float64 `json:"chain_backhaul_setup_ms"`
	PathLimit            int     `json:"path_limit"`
	LatencyLimitMs       float64 `json:"latency_limit_ms"`
}

func loadConfig() (*config, error) {
	var c config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("parse workloads.json: %w", err)
	}
	if c.SetupRepeats < 1 || len(c.TailLadder) == 0 || c.MinBeyondTail < 1 {
		return nil, fmt.Errorf("workloads.json: setup_repeats, tail_ladder and min_beyond_tail must be set")
	}
	if s := c.Workloads.Plan.ChainShare; s <= 0 || s > 1 {
		return nil, fmt.Errorf("workloads.json: plan chain_share %g not in (0, 1]", s)
	}
	return &c, nil
}

// channelByName resolves a paper channel preset.
func channelByName(name string) (netsim.Channel, error) {
	for _, ch := range netsim.Presets() {
		if ch.Name == name {
			return ch, nil
		}
	}
	return netsim.Channel{}, fmt.Errorf("unknown channel %q", name)
}
