package conform

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/des"
)

// largeClockOffsets move TestSimulateDigests' streams to clocks whose
// ulp is a visible share of a job's execution time. A completion
// predicted there, now + (1-frac)·exe, rounds to an instant at which the
// job's progress falls short of the completion tolerance, so the node
// reaches a step where a resident is due with work left: the prediction
// is spent and only a re-plan issues the next one.
var largeClockOffsets = []float64{1e15, 1e17, 1e19}

// largeClockDeadline bounds each run of TestLargeClockDigests. A node
// that consumes a spent prediction without re-planning it keeps finding
// the same event at its own clock, so the run never returns; the
// deadline turns that livelock into a failure within seconds. Nothing
// can stop a livelocked run, so its goroutine is left spinning until
// the test binary exits.
const largeClockDeadline = 10 * time.Second

// largeClockDigests pins des.Simulate on the offset streams, hashed like
// simulateDigests. The constants were recorded with the engine that kept
// its pending events in a heap, so they pin the queue-free loop to it.
var largeClockDigests = map[string]string{
	"DominantMinRatio/poisson/cap0/offset=1e+15":  "7565c5e9730c6ef74de42ad234ca8ffa60f482df181a749fe2786df50ebe1420",
	"DominantMinRatio/poisson/cap0/offset=1e+17":  "2d7af9b94f6c44172b11f777b325c7fd290a39c159591156f89b5b734cd5075e",
	"DominantMinRatio/poisson/cap0/offset=1e+19":  "d0e7ab4d477bed79ef8125f9a2f38ce04a60582165729f1554b79ea879d1e33f",
	"DominantMinRatio/poisson/cap2/offset=1e+15":  "a13bd57c4a26faab49a3bfafff2505ae416f5f59f577560d12ba5acb5c272c61",
	"DominantMinRatio/poisson/cap2/offset=1e+17":  "0c9fbc4ad46fbebaed328d52dcea0d39092da0ce7553e02f6ca16170457cf75d",
	"DominantMinRatio/poisson/cap2/offset=1e+19":  "04b063942e4e4858cdc590bcce5ad1affe59ef675aa79436d288fb4c82e294b2",
	"DominantMinRatio/batch/cap0/offset=1e+15":    "1c8ea49c0080085e8ceeeeaebfbfb4eea046fc390c0ca89f55d7d2173a5ef4c1",
	"DominantMinRatio/batch/cap0/offset=1e+17":    "fdb239f5a9ffbc1e97735ac75923ba5ff9ed67d94fce35dfc890b247e82ec7e7",
	"DominantMinRatio/batch/cap0/offset=1e+19":    "ad44c10e1aa2f74d15de9190caa46b0ace0baf6d9ac7a049eb512dc29c1177a5",
	"DominantMinRatio/batch/cap2/offset=1e+15":    "ae9e2c78fd30f686e2069b638fdd9215bd3aa6a039615b1f0fc72a9fc5e9a50d",
	"DominantMinRatio/batch/cap2/offset=1e+17":    "c9d4c9bea9728e56650e106684f01f004b9a8f64c4ca578af8f8bd7e2bbceb2b",
	"DominantMinRatio/batch/cap2/offset=1e+19":    "1bdc9098259e06bb19aa5da0dfd14debc6011e19cea985a4e165c195a830550e",
	"DominantMinRatio/gamma/cap0/offset=1e+15":    "5ae9efcf4ea26b4d5902c8f789b5708337f8508a2fe79ca2ea809a4a687efc9e",
	"DominantMinRatio/gamma/cap0/offset=1e+17":    "16fed2372dae0a87e26ad004b11b76d3dcaee63f978d0c5026824476adf043c4",
	"DominantMinRatio/gamma/cap0/offset=1e+19":    "5ea19b034c07bfe3e7346a7389cbec376a2f7efb547996b782c5fc3098c7d0e6",
	"DominantMinRatio/gamma/cap2/offset=1e+15":    "03fdb414317e867070f21d79ef2ec9f00257061b7fbd04043cd480ca51a89a24",
	"DominantMinRatio/gamma/cap2/offset=1e+17":    "29bcff9fee53a2fb35b172be010e7c0a763fe0a19ab685147a3667b7e5c89744",
	"DominantMinRatio/gamma/cap2/offset=1e+19":    "c3dc5f228f7248ca5260e28d5c7fc8e5b4e756cab08c2c8bb798b06972c30744",
	"DominantMinRatio/ipoisson/cap0/offset=1e+15": "55d494c70b10972e1558461218e4417651c3cda68b11c9842f6360515198a3b3",
	"DominantMinRatio/ipoisson/cap0/offset=1e+17": "084f0766bd944302f8752b584d32ada71f24ec8c37bb635970d2157159f22a7d",
	"DominantMinRatio/ipoisson/cap0/offset=1e+19": "44e34cb4dd5cac436d9ad8bbf2810691532d6748ebb0c53977bdc73cd8e4550f",
	"DominantMinRatio/ipoisson/cap2/offset=1e+15": "c2bd2ba48e493a4f1aef12fbcf6d5075e240f0f52bef4514b3773ba44c9fa3b3",
	"DominantMinRatio/ipoisson/cap2/offset=1e+17": "57950d17575884fd040c48e066151efa07d003795d3c29074c2f42024efe9cbd",
	"DominantMinRatio/ipoisson/cap2/offset=1e+19": "deb1c4d0cf98fa8c22d5e093bee247ecff4683c15b67bad662eec356cf51c2d1",
	"portfolio/poisson/cap0/offset=1e+15":         "d34ad04091b3e19c334e656c9b8ece46c028adc8df4fbfdd5d2f21f02772df9c",
	"portfolio/poisson/cap0/offset=1e+17":         "43349a0b74d5bfb663ff43811eea986356cd945d97db31beed4b6c89c90f0912",
	"portfolio/poisson/cap0/offset=1e+19":         "ebde65354584c4dff7d4be204132c1b519cdb0d3b0339e6f4e984c317646ae5a",
	"portfolio/poisson/cap2/offset=1e+15":         "70833aaaa9d6a0932e0cd8614da3654278336767616e30c29547411af150ae43",
	"portfolio/poisson/cap2/offset=1e+17":         "fdcc47328d2e77098e16eb48cb184d90d007932a856852ab46f6ac285adf8ba1",
	"portfolio/poisson/cap2/offset=1e+19":         "2a8d51bc67753d7267943def20ece45b01db863744dc406ece32f7970a8726ca",
	"portfolio/batch/cap0/offset=1e+15":           "1c8ea49c0080085e8ceeeeaebfbfb4eea046fc390c0ca89f55d7d2173a5ef4c1",
	"portfolio/batch/cap0/offset=1e+17":           "fdb239f5a9ffbc1e97735ac75923ba5ff9ed67d94fce35dfc890b247e82ec7e7",
	"portfolio/batch/cap0/offset=1e+19":           "ad44c10e1aa2f74d15de9190caa46b0ace0baf6d9ac7a049eb512dc29c1177a5",
	"portfolio/batch/cap2/offset=1e+15":           "b9a9ba617631446f486edda7761a24ff2579fd42b84f8006aedca845d2dddef8",
	"portfolio/batch/cap2/offset=1e+17":           "4ea790509092af270d3447cbde3edc6f58a19f23a1570b5fbaff7274f0ca7935",
	"portfolio/batch/cap2/offset=1e+19":           "f775f90e7cff3e29248f77826661bfa3424abee620e78ffa199f1bdf7f9b8528",
	"portfolio/gamma/cap0/offset=1e+15":           "5ae9efcf4ea26b4d5902c8f789b5708337f8508a2fe79ca2ea809a4a687efc9e",
	"portfolio/gamma/cap0/offset=1e+17":           "16fed2372dae0a87e26ad004b11b76d3dcaee63f978d0c5026824476adf043c4",
	"portfolio/gamma/cap0/offset=1e+19":           "5ea19b034c07bfe3e7346a7389cbec376a2f7efb547996b782c5fc3098c7d0e6",
	"portfolio/gamma/cap2/offset=1e+15":           "86e4d049f082d394ef22065d002543d1520418061b5db504aed8691d48b4fbbb",
	"portfolio/gamma/cap2/offset=1e+17":           "4a89cf2067bf3b8b8b5aac103707da0fd6b627dfe2cb5f88a9c0c4ebd87946ac",
	"portfolio/gamma/cap2/offset=1e+19":           "d9549299509d751e5192ededfe5aeec0c883adce9931e6ffff694b6715267bb5",
	"portfolio/ipoisson/cap0/offset=1e+15":        "6191e13a4bd1d8448cd1e95257923d7856f7d7854258ff570edee5b705154116",
	"portfolio/ipoisson/cap0/offset=1e+17":        "ff0aa5cbcd2160eea1e56ed520e00f3c8f1a6ed2e8e11f8f8da7597b4503f4ff",
	"portfolio/ipoisson/cap0/offset=1e+19":        "d579e4952070e11f57600c183ffdd058d09ec8357b2fafb99ee8c8408595dc32",
	"portfolio/ipoisson/cap2/offset=1e+15":        "a4aa3ad7dabcd485b90a1f1a168ede063a5ff7147cda58bbe287e46cbd9929d4",
	"portfolio/ipoisson/cap2/offset=1e+17":        "94b0830c84951a0ba9502ef35ad08897b1d90b707d663478ec729a34fe21919f",
	"portfolio/ipoisson/cap2/offset=1e+19":        "0aafec162411bf6eeb0d76fa1e5f89603fed210f5410206099d7a33750491973",
	"norepartition/poisson/cap0/offset=1e+15":     "0dc1bbb86eea9d08d72dc771ac8f45ea80fdc227ae1fd01096800bfb78ec50e5",
	"norepartition/poisson/cap0/offset=1e+17":     "15656c5c0fd56b005678dde23b11137c2bf23a4e1c6471dd17d2eed7be77ad30",
	"norepartition/poisson/cap0/offset=1e+19":     "6789f63a7a98de4107bc5ccf290fce4e1bb42184dabc6843be3ef341bfaf3b7a",
	"norepartition/poisson/cap2/offset=1e+15":     "350c52309d4131d248ea5960ce169d5be60f5441ec89fdcdefcea865efb5a500",
	"norepartition/poisson/cap2/offset=1e+17":     "cd3734d61450114b508dc5dee2e2bf7f556024994c461ffdc3624f53114ab2ff",
	"norepartition/poisson/cap2/offset=1e+19":     "8ad062c36eff2f01bf6275baf216caa7bd40b3db225c046ce9b1fef913d41999",
	"norepartition/batch/cap0/offset=1e+15":       "78a7daaca2b7e995ebb64dbd62e621cef828171b3e775499a8adc645684ce84c",
	"norepartition/batch/cap0/offset=1e+17":       "8f9c8cc8b3e3f09e17de7e4d846831a63fb9477c7e4eec9e8032e6e0bb4420fa",
	"norepartition/batch/cap0/offset=1e+19":       "50aa1e38bd79a2dee78e05c4a312081c34c4223ce8196191540404b90b0597f0",
	"norepartition/batch/cap2/offset=1e+15":       "dda12f499fab90581b3c6dc766bb7221be34a08553850214b670a31f3330c1d1",
	"norepartition/batch/cap2/offset=1e+17":       "3636a74d528f512f851d119234088c45c5317e7d66aa633ca58fbe409ea280b7",
	"norepartition/batch/cap2/offset=1e+19":       "f02c094f53b19b5eee1ed71f6c89ffe3bd31c8b5ce184a86212f3d09b4915c1c",
	"norepartition/gamma/cap0/offset=1e+15":       "6c71a704e65c3c0529d59d3a5640b2759ead56be84b8a310eb859c63b2a5f740",
	"norepartition/gamma/cap0/offset=1e+17":       "11a06d326762a4fd52bf3b7d8fa4a8241e615da8ead34f409489d65726fc3569",
	"norepartition/gamma/cap0/offset=1e+19":       "edacae818391f460b9707a93c835317e97a0fd71586de96b08abdb240026d0cf",
	"norepartition/gamma/cap2/offset=1e+15":       "2d5fe7fae60a8b05dd07574f25743a5d9564aa79eced3874a48183e2e85c78c2",
	"norepartition/gamma/cap2/offset=1e+17":       "198c7614745d884f7b85a9e08a751883999153a5a2dab621a5e54c39698c54ba",
	"norepartition/gamma/cap2/offset=1e+19":       "a2f30e2dc85c5c4b8166aa8697c23032b08e63b1aff3123383c3d36a709d1be6",
	"norepartition/ipoisson/cap0/offset=1e+15":    "1691ae426762dfbcd56918cc90e5d6b6a66945d941d4035da32f0d71f39c3dab",
	"norepartition/ipoisson/cap0/offset=1e+17":    "c6d6415e272c49c81a23339180beedc24758024dc857bfa9328c492a0d9c89ab",
	"norepartition/ipoisson/cap0/offset=1e+19":    "2ff858d722f261622152ec9d3bcd859561ac88478e575c5fbdecdadde55be7e6",
	"norepartition/ipoisson/cap2/offset=1e+15":    "832c9775736a497f04edc0041330fdd71bbbbd01389bbbefc4d906c76bf4ab43",
	"norepartition/ipoisson/cap2/offset=1e+17":    "37513194fdc56674c607012f913057f2a9be3b8ded2f2229c9f10acc56ca9e62",
	"norepartition/ipoisson/cap2/offset=1e+19":    "60f041be6ec7b4adc109fdd61cec79ca5f0348b7388b83ca3a7d823ca7ac6384",
}

// TestLargeClockDigests replays every stream of TestSimulateDigests with
// its arrival times offset to large clocks, under a heuristic, a
// portfolio and a no-repartition policy with and without a residency
// cap, and compares each run with its pinned digest.
func TestLargeClockDigests(t *testing.T) {
	for _, policy := range []string{"DominantMinRatio", "portfolio", "norepartition"} {
		for _, st := range simulateStreams {
			for _, maxRes := range []int{0, 2} {
				for _, offset := range largeClockOffsets {
					key := fmt.Sprintf("%s/%s/cap%d/offset=%g", policy, st.spec.Process, maxRes, offset)
					sp := &des.Spec{Arrivals: st.spec, Policy: policy, MaxResident: maxRes, Seed: 7}
					sc, err := sp.Build()
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					var arrivals []des.Arrival
					for a, ok := sc.Arrivals.Next(); ok; a, ok = sc.Arrivals.Next() {
						a.Time += offset
						arrivals = append(arrivals, a)
					}
					if sc.Arrivals, err = des.NewReplay(arrivals); err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					type outcome struct {
						r   *des.Result
						err error
					}
					done := make(chan outcome, 1)
					go func() {
						r, err := des.Simulate(sc)
						done <- outcome{r, err}
					}()
					var out outcome
					select {
					case out = <-done:
					case <-time.After(largeClockDeadline):
						t.Fatalf("%s: no result within %v", key, largeClockDeadline)
					}
					if out.err != nil {
						t.Fatalf("%s: %v", key, out.err)
					}
					r := out.r
					sum := sha256.Sum256(fmt.Appendf(nil, "%s\ntruncated=%d maxqueue=%d replan=%+v",
						onlineDigest(r), r.Truncated, r.MaxQueue, r.Replan))
					if got := hex.EncodeToString(sum[:]); got != largeClockDigests[key] {
						t.Errorf("%s: digest %s, want %s", key, got, largeClockDigests[key])
					}
				}
			}
		}
	}
}
