package main

import (
	"strings"
	"testing"
)

func TestClusterPeersValidation(t *testing.T) {
	cases := []struct {
		name      string
		role      string
		workers   string
		wantPeers []string
		wantErr   string // substring; empty means success
	}{
		{name: "solo default", role: "solo", wantPeers: nil},
		{name: "worker role", role: "worker", wantPeers: nil},
		{name: "bogus role", role: "boss", wantErr: "invalid -role"},
		{name: "bogus role names valid ones", role: "boss", wantErr: "solo, coordinator, worker"},
		{name: "workers without coordinator role", role: "worker", workers: "http://a:1", wantErr: "-workers only applies"},
		{name: "coordinator without workers", role: "coordinator", wantErr: "requires -workers"},
		{
			name: "coordinator two workers", role: "coordinator",
			workers:   "http://a:8081, http://b:8082",
			wantPeers: []string{"http://a:8081", "http://b:8082"},
		},
		{name: "trailing slash normalized", role: "coordinator", workers: "http://a:8081/", wantPeers: []string{"http://a:8081"}},
		{name: "empty entry", role: "coordinator", workers: "http://a:1,,http://b:2", wantErr: "empty entry"},
		{name: "relative URL", role: "coordinator", workers: "localhost:8081", wantErr: "absolute http(s) URL"},
		{name: "bad scheme", role: "coordinator", workers: "ftp://a:1", wantErr: "absolute http(s) URL"},
		{name: "duplicate", role: "coordinator", workers: "http://a:1,http://a:1", wantErr: "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			peers, err := clusterPeers(tc.role, tc.workers)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if len(peers) != len(tc.wantPeers) {
				t.Fatalf("peers = %v, want %v", peers, tc.wantPeers)
			}
			for i := range peers {
				if peers[i] != tc.wantPeers[i] {
					t.Fatalf("peers = %v, want %v", peers, tc.wantPeers)
				}
			}
		})
	}
}

func TestDurabilityFlagsValidation(t *testing.T) {
	cases := []struct {
		name      string
		role      string
		journal   string
		auditFrac float64
		wantErr   string // substring; empty means success
	}{
		{name: "solo defaults", role: "solo"},
		{name: "coordinator defaults", role: "coordinator"},
		{name: "coordinator journal", role: "coordinator", journal: "/tmp/j"},
		{name: "coordinator audit", role: "coordinator", auditFrac: 0.05},
		{name: "coordinator full audit", role: "coordinator", auditFrac: 1},
		{name: "journal on solo", role: "solo", journal: "/tmp/j", wantErr: "-journal only applies"},
		{name: "journal on worker", role: "worker", journal: "/tmp/j", wantErr: "-journal only applies"},
		{name: "audit on worker", role: "worker", auditFrac: 0.1, wantErr: "-audit-frac only applies"},
		{name: "audit negative", role: "coordinator", auditFrac: -0.1, wantErr: "outside [0,1]"},
		{name: "audit above one", role: "coordinator", auditFrac: 1.5, wantErr: "outside [0,1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := durabilityFlags(tc.role, tc.journal, tc.auditFrac)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}
