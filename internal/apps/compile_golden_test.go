package apps

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"everest/internal/variants"
)

// compileDigest is a SHA-256 over everything a compiled kernel hands the
// rest of the system: the MLIR module as printed after the TeIL and affine
// lowering passes, the fused HLS kernel and its schedule report, the
// derived workload model (flops as raw float64 bits, byte footprints), the
// operating points with every float as raw bits, and the bitstream ID.
func compileDigest(c *variants.Compiled) string {
	h := sha256.New()
	fmt.Fprintf(h, "module\n%s\n", c.Module.String())
	fmt.Fprintf(h, "hls %+v\nreport %+v\n", c.HLSKernel, c.Report)
	fmt.Fprintf(h, "flops %016x in %d out %d\n", math.Float64bits(c.Flops), c.InputBytes, c.OutputBytes)
	for _, p := range c.Points {
		fmt.Fprintf(h, "point %s %016x %016x %d %+v %s\n", p.Variant,
			math.Float64bits(p.LatencySeconds), math.Float64bits(p.BoundSeconds),
			p.Cores, p.Resources, p.DeviceClass)
	}
	fmt.Fprintf(h, "bitstream %s\n", c.Design.Bitstream.ID)
	return hex.EncodeToString(h.Sum(nil))
}

// TestCompileGoldenDigest pins the compiled output of every kernel the
// application suite, the k-means workload (default and E-data shapes) and
// the built-in examples compile. The digests were recorded while the
// compile path still specialized shapes by interpreting each kernel on its
// bound data; inferring them from shapes alone must reproduce every byte.
func TestCompileGoldenDigest(t *testing.T) {
	golden := map[string]string{
		"example/airquality/apps":    "da02eb207061097cdb534334df0dae5a5e85028941caef27c58bec382b001f78",
		"example/airquality/default": "21f8b7eb1d2d8e8ff434e4728d0f94e2841fffd796e6f246eb48b98ab913fbcd",
		"example/windpower/apps":     "587b76119b1c3d2b01c5e9d1598a856dfe2317c6082fba1f7558b2dff29627c9",
		"example/windpower/default":  "d9097762a4726404957820e6edf9f12101bb67491362f8f94ad77ffa3292570a",
		"kmeans-default/assign":      "cefdff06426cef2be200471f96b8499adfe0d4b3b80f69284771a255e4c6420d",
		"kmeans-default/partial":     "4f3d555c3659dd59255ddb71ca3afae090b2cbb512c1305280fe479b02c12ae7",
		"kmeans-default/update":      "df138ac71135b8de702c297bbe1163142c67621d2078d3c284435058dbbd6622",
		"kmeans-e-data/assign":       "5ac773fd1beea45ca5c7695c585968007c7d431c3e15cbe92fdfa37acd75f159",
		"kmeans-e-data/partial":      "9303659cfac34e7bd9052cd256451be29e703267ff25911d057fa9646abe72eb",
		"kmeans-e-data/update":       "7642ddb9411e3169b30af4212aebc74a7f5b31d0428f86a393111650ebd600d4",
		"suite/energy/infer":         "e927252dc2c025e89f75f70e9ebcd581aacf5800ca8149deece4c428ee79fbc3",
		"suite/energy/krr":           "587b76119b1c3d2b01c5e9d1598a856dfe2317c6082fba1f7558b2dff29627c9",
		"suite/traffic/projection":   "8559da614802b62d2ccfbc1335021f5d99a81989642b63cc2f286deeb223e56c",
		"suite/weather/rad0":         "f54fb1265965e0bbcb05900c8c882b822399efc8a95867cc74d57435b3a17de8",
		"suite/weather/rad1":         "f54fb1265965e0bbcb05900c8c882b822399efc8a95867cc74d57435b3a17de8",
		"suite/weather/rad2":         "f54fb1265965e0bbcb05900c8c882b822399efc8a95867cc74d57435b3a17de8",
	}
	got := map[string]string{}

	s, err := BuildSuite(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range s.Apps {
		for _, k := range app.Kernels {
			got["suite/"+app.Name+"/"+k.Stage] = compileDigest(k.Compiled)
		}
	}
	for name, cfg := range map[string]KMeansConfig{
		"default": {},
		"e-data":  {Partitions: 8, Points: 2048, Dims: 16, Centroids: 8},
	} {
		km, err := BuildKMeans(DefaultOptions(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got["kmeans-"+name+"/assign"] = compileDigest(km.Assign)
		got["kmeans-"+name+"/partial"] = compileDigest(km.Partial)
		got["kmeans-"+name+"/update"] = compileDigest(km.Update)
	}
	for _, name := range variants.ExampleNames() {
		for optName, opt := range map[string]variants.Options{"default": {}, "apps": DefaultOptions()} {
			c, err := variants.CompileExample(name, opt)
			if err != nil {
				t.Fatal(err)
			}
			got["example/"+name+"/"+optName] = compileDigest(c)
		}
	}

	if len(got) != len(golden) {
		t.Errorf("compiled %d kernels, golden pins %d", len(got), len(golden))
	}
	for key, want := range golden {
		if got[key] != want {
			t.Errorf("%s: compile digest %s, want %s", key, got[key], want)
		}
	}
}
