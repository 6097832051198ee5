package experiments

import (
	"testing"

	"herdkv/internal/cluster"
)

func TestClassicalShape(t *testing.T) {
	shortWindows(t)
	tbl := Classical(cluster.Apt())
	lat := row(t, tbl, "idle GET latency (us)")
	rdmaLat, kernelLat := fval(t, lat[1]), fval(t, lat[2])
	// Section 2.2.1: ~1 us vs ~10 us half-RTT; as full request-reply
	// latencies the kernel stack should be several times slower and land
	// near 8-12 us.
	if kernelLat < 2*rdmaLat {
		t.Errorf("kernel latency (%.1f us) should be >=2x RDMA (%.1f us)", kernelLat, rdmaLat)
	}
	if kernelLat < 6 || kernelLat > 14 {
		t.Errorf("kernel GET latency = %.1f us, want ~8-12", kernelLat)
	}
	tput := row(t, tbl, "throughput, 16 cores (Mops)")
	rdmaT, kernelT := fval(t, tput[1]), fval(t, tput[2])
	if rdmaT < 4*kernelT {
		t.Errorf("RDMA throughput (%.1f) should be >=4x the kernel stack (%.1f)", rdmaT, kernelT)
	}
	// The kernel stack still does a few Mops with 16 cores (the [14]
	// memcached-over-IPoIB ballpark).
	if kernelT < 1 || kernelT > 8 {
		t.Errorf("kernel throughput = %.1f Mops, want ~2-6", kernelT)
	}
}
