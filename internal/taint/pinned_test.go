package taint_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"introspect/internal/ir"
	"introspect/internal/suite"
	"introspect/internal/taint"
)

// programHash hashes the %v dump of a program: every table, every id
// and the computed hierarchy maps (which fmt prints in key order).
// WriteText alone would not pin variable or signature ids.
func programHash(p *ir.Program) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v", *p)
	return hex.EncodeToString(h.Sum(nil))
}

// TestKernelProgramsPinned pins, id for id, the programs the taint
// client builds: the standalone kernel, the kernel grafted onto each
// suite program by WithKernel, and the Inject copy of each of those
// under KernelSpec.
func TestKernelProgramsPinned(t *testing.T) {
	want := map[string]string{
		"kernel":          "508c874584786e7cd574585e5968a17ad672a28359283ef4ebccdee717916e76",
		"kernel/inject":   "bff34362f496376b55d09bba2faf3f5418b4229e9bdc64798b30e34ab24f8641",
		"antlr":           "b9155ccccef6855885417ed255bc5d23baab83e2f5fb1eff005dd2cb3ad5f5f6",
		"antlr/inject":    "b8b6da1f0b60548b99ced84157e57e8406d1c9291cbda95048a98b8a277739e2",
		"bloat":           "5473864267c4699b21b02a15ba3aceae59f5c83e6bea33f07f94888d8f2ebcd8",
		"bloat/inject":    "17ca6327215d7c0620f43f62ea30ac370840a15c10bb7d21ca7c70d0baf93201",
		"chart":           "952754bcad270219c98b7c980458d1a2c3e695ebbccd7f7d1319000b395ed1e0",
		"chart/inject":    "49f7d2025cc9d28b5e97e81d069797108a01c0c4162cee800f39ca0bd4885837",
		"eclipse":         "423195dd3170647690e4282e7723e35246d07602e2468a6a8b5f4fbd82ac56b4",
		"eclipse/inject":  "38e58410ef9cf5c429e43706a460716e6d24bbf99161528325a41afdf1e78cc0",
		"hsqldb":          "bb1aff130138f4b62c7f6a2d4a534d91dd29864d043756c71796dac5b2ddb1a3",
		"hsqldb/inject":   "82aaf59c227d755bf5da6d99759927a18d1b8fb32a5c01522a84f9fd9bd08fb4",
		"jython":          "c0502e52422dde6b616884704b46f181623a29c12d1e459419f07f4177698218",
		"jython/inject":   "a3e3112b1de51f5088e363e6721b68e5a67c2ee60c5bb152926e2b0d7c93ff10",
		"lusearch":        "32d26adf93e699b29e4abdc46b13252938e29b484c68546089c529ad9b65d3f2",
		"lusearch/inject": "b479ce294780827be609688611ac49c51b7d51c59611449719cea7ee46137644",
		"pmd":             "d0619427d0d5e0744c2b7e0a47239f3750fe19e71485db01c30393c38f253301",
		"pmd/inject":      "64be6a74e460b325e83104d604dfa35470f442e561b000ffbea2d4edde2388e2",
		"xalan":           "b8737161e8c1f9a9e1be9bf91e954e1d047ca949db4bdddf130fc32435783a6f",
		"xalan/inject":    "d06f9bfe18ef2f4cbe2c0a15f355903d5d0c7f153e79a3028cf8cc939e92057e",
	}
	got := map[string]string{}
	pin := func(name string, p *ir.Program) {
		got[name] = programHash(p)
		inj, _, err := taint.Inject(p, taint.KernelSpec())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name+"/inject"] = programHash(inj)
	}
	kern, _ := taint.Kernel()
	pin("kernel", kern)
	for _, b := range suite.Names() {
		merged, _, err := taint.WithKernel(suite.MustLoad(b))
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		pin(b, merged)
	}
	for name, h := range got {
		if want[name] != h {
			t.Errorf("%s hashes %s, want %s", name, h, want[name])
		}
	}
}
