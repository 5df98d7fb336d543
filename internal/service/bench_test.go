package service

import (
	"context"
	"testing"
	"time"
)

// The cold/warm pair quantifies what the serving layer buys: cold pays
// request canonicalization + planner search + artifact encode + cache
// fill; warm pays canonicalization + fingerprint + memory-LRU lookup.
// Both report seconds per request (units service_plan_cold_s /
// service_plan_warm_s), so one run shows the cold:warm ratio the daemon
// exists to exploit.

func benchRequest() Request {
	return Request{Model: "case-study", Devices: 4}
}

func BenchmarkServicePlanCold(b *testing.B) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := New(Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		start := time.Now()
		if _, err := s.Plan(context.Background(), benchRequest()); err != nil {
			b.Fatal(err)
		}
		total += time.Since(start)

		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
	b.ReportMetric(total.Seconds()/float64(b.N), "service_plan_cold_s")
}

func BenchmarkServicePlanWarm(b *testing.B) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Plan(context.Background(), benchRequest()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := s.Plan(context.Background(), benchRequest())
		if err != nil {
			b.Fatal(err)
		}
		if res.Source != "hit-memory" {
			b.Fatalf("warm iteration got source %q", res.Source)
		}
	}
	b.ReportMetric(time.Since(start).Seconds()/float64(b.N), "service_plan_warm_s")
}
