package tube

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"tdp/internal/cluster"
	"tdp/internal/wire"
)

// BenchmarkUsageWireHTTP measures end-to-end ingestion over real HTTP:
// one wire frame per POST /usage/wire to a single-node cluster, timed
// through decode, validation, ownership, the engine apply and the ack.
func BenchmarkUsageWireHTTP(b *testing.B) {
	for _, size := range []int{16, 256} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
			if err != nil {
				b.Fatal(err)
			}
			srv, err := NewServer(opt)
			if err != nil {
				b.Fatal(err)
			}
			cfg := cluster.Config{Version: 1, Members: []cluster.Member{{ID: "n0", Addr: "http://local"}}}
			if err := srv.EnableCluster(ClusterOptions{SelfID: "n0", Ring: cfg}); err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			tab, err := wire.NewClassTable(testClasses())
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]UsageReport, size)
			for i := range batch {
				batch[i] = UsageReport{
					User:     fmt.Sprintf("user%03d", i%64),
					Class:    testClasses()[i%3],
					VolumeMB: 1,
				}
			}
			body, err := wire.NewEncoder(tab).Encode(batch)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := http.Post(ts.URL+"/usage/wire", cluster.WireContentType, bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
			b.ReportMetric(float64(b.N*size)/b.Elapsed().Seconds(), "reports/s")
		})
	}
}
