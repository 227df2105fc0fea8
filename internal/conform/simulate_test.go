package conform

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/des"
	"repro/internal/model"
)

// simulateStreams are the arrival processes of TestSimulateDigests, each
// with a cutoff inside its stream. The batch cutoff falls exactly on a
// batch instant, so the half-open window truncates that whole batch.
var simulateStreams = []struct {
	spec   des.ArrivalSpec
	cutoff float64
}{
	{des.ArrivalSpec{Process: "poisson", Rate: 2e-9, N: 24}, 6e9},
	{des.ArrivalSpec{Process: "batch", Interval: 4e8, Size: 3, N: 12}, 8e8},
	{des.ArrivalSpec{Process: "gamma", Shape: 2, Scale: 3e8, Burst: 4, N: 16}, 2.8e9},
	{des.ArrivalSpec{Process: "ipoisson", BaseRate: 2e-9, Amplitude: 1.5e-9, Period: 4e9, N: 24}, 6e9},
}

// simulateDigests pins des.Simulate over every policy kind, arrival
// process, residency cap and cutoff of TestSimulateDigests: sha256 of
// onlineDigest plus the truncation count, the peak queue and the
// replan telemetry. The constants were recorded before Simulate became
// a driver of des.Node, so they pin that driver to the closed loop it
// replaced, which pulled each next arrival inside its event step.
var simulateDigests = map[string]string{
	"DominantMinRatio/poisson/cap0/duration=0":      "8dc21ba9d9105a6b9eb507a989ec1d5523512367a58ef5349c879c0621ada65a",
	"DominantMinRatio/poisson/cap0/duration=6e+09":  "97ad21cb6729486e94853657390d4a0b22c431c4414958c5b1a2bdfe0cf32b40",
	"DominantMinRatio/poisson/cap1/duration=0":      "139be89846c10cadf14fe12d8941778791739c40c6423b6f7f5ee76a75ba91da",
	"DominantMinRatio/poisson/cap1/duration=6e+09":  "beee4ee39a21870a0c01e8ef0f782b24df541aaff792edecd12f55c32549d1a9",
	"DominantMinRatio/poisson/cap3/duration=0":      "e8149aadb6fbb4654e4397138ba95b47d1b5289ff85715d75671edffcfa05b8d",
	"DominantMinRatio/poisson/cap3/duration=6e+09":  "2040c5351e89d3771e56ceb75ee19bdd989323407eaa052a7ea18721aa0ff378",
	"DominantMinRatio/batch/cap0/duration=0":        "133986b829aaba7e1d3344c21d3efc43cf7a94538bbb2ed57ea5fec64949e382",
	"DominantMinRatio/batch/cap0/duration=8e+08":    "b44d36d52053de99a4afeedd5fdf0e1f41564278ccdb860827e4370fcb74a23e",
	"DominantMinRatio/batch/cap1/duration=0":        "f1f6c1ddf48db274a7d665004cc285f66e92199f1a14c6511e496f0de6ecc3bb",
	"DominantMinRatio/batch/cap1/duration=8e+08":    "ab25898591d5a03626dfdcca0e61b43b92235dfc34c1a4a7b55b3ebb303b88ca",
	"DominantMinRatio/batch/cap3/duration=0":        "25cbb7f401afce7ce1f8be062643103dab1c65ff86b89962dd291706c9c82ca8",
	"DominantMinRatio/batch/cap3/duration=8e+08":    "369a31249717a2bbc852ca8197ba9d485b783a2b4483fb59504fb95782c27f22",
	"DominantMinRatio/gamma/cap0/duration=0":        "b1ad8a214184f729186fb82b969c172dad4f60ba3792e5f5f1dada6a0257c8d4",
	"DominantMinRatio/gamma/cap0/duration=2.8e+09":  "749b3e691eb3ce2b00b2f6a77541b7dae757d0c25a2782c6cd37f8d2544989d2",
	"DominantMinRatio/gamma/cap1/duration=0":        "cc367f4c30e83f42f4d9a731863b88a26cd0059016fffda56663e0fc74dd0f02",
	"DominantMinRatio/gamma/cap1/duration=2.8e+09":  "42f474d132ad950da2e63b629ffc0cd705ede8e1ee31a1811fd67dfd820dc762",
	"DominantMinRatio/gamma/cap3/duration=0":        "898b8349ae7abe55dbf55599d5f470b68a4cd57bf01b3fc8458f465f952488f0",
	"DominantMinRatio/gamma/cap3/duration=2.8e+09":  "1d267b7db1295521cf2c8bb03ebffdef3f1a6eb35510510a3f9069ca8d4b7957",
	"DominantMinRatio/ipoisson/cap0/duration=0":     "615b62361fa5849779f88a97756a6a53af53a4733dd72c8f0bc466718fae6922",
	"DominantMinRatio/ipoisson/cap0/duration=6e+09": "fef8d0a1150a1bfa6ffa298689a6537922752ede00094efc530482a180f36882",
	"DominantMinRatio/ipoisson/cap1/duration=0":     "7e5a4a055b9926ee13765d8a7def63f8d3d0d822254978dd5380c451f4cec5fa",
	"DominantMinRatio/ipoisson/cap1/duration=6e+09": "bf63b2db481f824390d13509d543f20bf8e909d7dc92b998782b4c09bb76de0c",
	"DominantMinRatio/ipoisson/cap3/duration=0":     "a6a11c8245c57284b574e78096e0bcdccd5f28d2ee75fa741adaac79c620842a",
	"DominantMinRatio/ipoisson/cap3/duration=6e+09": "5f5521d41ca229cbe5b52e694bb0254b35c4a19533041c1e021afa7ff11929e6",
	"portfolio/poisson/cap0/duration=0":             "29d7f471a4f2d1cddd64c7dce801197b412fd353b6faf1ce93b9615b32489fb9",
	"portfolio/poisson/cap0/duration=6e+09":         "97ad21cb6729486e94853657390d4a0b22c431c4414958c5b1a2bdfe0cf32b40",
	"portfolio/poisson/cap1/duration=0":             "4db746067670c7b05e480023839bad69801176e1a2145770ddd81eccf7f759e2",
	"portfolio/poisson/cap1/duration=6e+09":         "c62a8e7390f39ae9869b8dc7aad612adf7a219fb8b83e19dbfa3e28d5eeb4d20",
	"portfolio/poisson/cap3/duration=0":             "d6ab3314216b3afd59e39f3e06586d910746c2415e48232ef6e904b7a4af6219",
	"portfolio/poisson/cap3/duration=6e+09":         "2040c5351e89d3771e56ceb75ee19bdd989323407eaa052a7ea18721aa0ff378",
	"portfolio/batch/cap0/duration=0":               "133986b829aaba7e1d3344c21d3efc43cf7a94538bbb2ed57ea5fec64949e382",
	"portfolio/batch/cap0/duration=8e+08":           "b44d36d52053de99a4afeedd5fdf0e1f41564278ccdb860827e4370fcb74a23e",
	"portfolio/batch/cap1/duration=0":               "8aed061445db952981e271441b8332668250d2b0a47c437303af3280720e3fc9",
	"portfolio/batch/cap1/duration=8e+08":           "ab25898591d5a03626dfdcca0e61b43b92235dfc34c1a4a7b55b3ebb303b88ca",
	"portfolio/batch/cap3/duration=0":               "6947d26aad3fe2e5368f1a4e140ee40b3023cba942cb7b673955639b5ffc7c4e",
	"portfolio/batch/cap3/duration=8e+08":           "369a31249717a2bbc852ca8197ba9d485b783a2b4483fb59504fb95782c27f22",
	"portfolio/gamma/cap0/duration=0":               "b1ad8a214184f729186fb82b969c172dad4f60ba3792e5f5f1dada6a0257c8d4",
	"portfolio/gamma/cap0/duration=2.8e+09":         "749b3e691eb3ce2b00b2f6a77541b7dae757d0c25a2782c6cd37f8d2544989d2",
	"portfolio/gamma/cap1/duration=0":               "4d53080988e9533a8de7f5af715a8874c16e7d54b711aaa4cfb593d5b7f252c0",
	"portfolio/gamma/cap1/duration=2.8e+09":         "5b6675201d904a311d71d1a68dcd23a1b9dae0cb36206ccf7d674e7e0df27984",
	"portfolio/gamma/cap3/duration=0":               "96e04b1d58860ce9135292a1d4b1f43a978af83caf3c267affba95a3af618b55",
	"portfolio/gamma/cap3/duration=2.8e+09":         "1d267b7db1295521cf2c8bb03ebffdef3f1a6eb35510510a3f9069ca8d4b7957",
	"portfolio/ipoisson/cap0/duration=0":            "a482e7fe56abbe91ddc46d0ea039367270380bcf5983d5b45e9c05c2c45fecbd",
	"portfolio/ipoisson/cap0/duration=6e+09":        "116de58f9d8c320588e3ce3637b2369a0b906385d68c164bd24abb0dc2a822fa",
	"portfolio/ipoisson/cap1/duration=0":            "e653da45ced25dcbc9bdaa3c7e3aceaedbb92da0fe12a5e19165840da80bcf36",
	"portfolio/ipoisson/cap1/duration=6e+09":        "4bbf3cda1842c206c02feb4f1b06480185588d9044ae41ffc0bc3a4552aebd64",
	"portfolio/ipoisson/cap3/duration=0":            "3804718b2cc4c553b94f2e36e2608541d7bde75dc9932b727db1939970e1a9ae",
	"portfolio/ipoisson/cap3/duration=6e+09":        "a40dc1536abe596e6d67c56a4fa8eca7a4b4106980a711d468a13d398d8182e0",
	"portfolio:full/poisson/cap0/duration=0":        "4392f939c733d8a1e229c82a40f8f3d49e526849455df3b84d46a4a67b11b936",
	"portfolio:full/poisson/cap0/duration=6e+09":    "f51ae23b564cba2f635a39eaa1606b05a395f744360dd1acd73c4bbfa211988e",
	"portfolio:full/poisson/cap1/duration=0":        "7bd0c340b166a20c591151a125d67c4e7fc56a24cf8381634d56914dfacf5157",
	"portfolio:full/poisson/cap1/duration=6e+09":    "459094e59ce99235bab4e028affbad3fd2d26125effb3e73cef794a1cc9350d2",
	"portfolio:full/poisson/cap3/duration=0":        "cac1ab5a87d50d8c0a9d329678d0991c9804613fcc1ba663baf543c131474b69",
	"portfolio:full/poisson/cap3/duration=6e+09":    "d97d881f213cb7101185293ba711d2fa9c41f7c9d118e3292ab53e9d9d57d7c5",
	"portfolio:full/batch/cap0/duration=0":          "2cec43dbfcc86eb753e034aa2e521a3633dbe49ea68822f88672e9106c526e12",
	"portfolio:full/batch/cap0/duration=8e+08":      "30e0616f7cd1c76a8d08bfe417159a245d37b2ecba8e610f02baecdf1168592b",
	"portfolio:full/batch/cap1/duration=0":          "67af9e2accbd14b5190b66b0a9a29cb55286952dc733dd72473e3c27e6b68f63",
	"portfolio:full/batch/cap1/duration=8e+08":      "8f8cc8bb0a181c91aa997496cff5dd6b46ea03478c5835d8808f351709884139",
	"portfolio:full/batch/cap3/duration=0":          "113ce0692465dcbb17e28623baf4b6c1845be2487d3fd7a4ebde7b9971a837ef",
	"portfolio:full/batch/cap3/duration=8e+08":      "25b30beea48c5f93e36fdacb911325be4ae61b2f05daf43524ccf5e0e3f89dd3",
	"portfolio:full/gamma/cap0/duration=0":          "add31135af8c1c4b18511e4381275a70dc1d9696e1d81b2108a5d7c5b93ebbdb",
	"portfolio:full/gamma/cap0/duration=2.8e+09":    "cd2e418cb736a9c68251196489663622c201142c9e62b3f8815872c3ccbb3667",
	"portfolio:full/gamma/cap1/duration=0":          "67529c0671746b813d4d0415bb3fad2ffbe5a1cb1407f882e0f9835162ca06f9",
	"portfolio:full/gamma/cap1/duration=2.8e+09":    "33c34d9bf616722f2a0b82a95299d112205450c81a9c38e760dbc4ef0482a614",
	"portfolio:full/gamma/cap3/duration=0":          "2fd262f3ef14d244074df26835ee9f9577054c1a28ff45809b399f0124a04fe1",
	"portfolio:full/gamma/cap3/duration=2.8e+09":    "e12d521721b3df0a8403a150e7947c1441e85d81b6babb079c8d6e09b85c1f6c",
	"portfolio:full/ipoisson/cap0/duration=0":       "ab8bf427a91d992f09a95c149281fce6f83a0fdee6b3e3d803ebe0c4a61e7708",
	"portfolio:full/ipoisson/cap0/duration=6e+09":   "fbc69f58360107ff0039c65cee7824886670437573929f8bf6531e774e39b450",
	"portfolio:full/ipoisson/cap1/duration=0":       "4120a64dbb86f6022989547c8aa0f7c422657ad9888919e662a914c5611c3c89",
	"portfolio:full/ipoisson/cap1/duration=6e+09":   "39783c9f2d7dd98721e6a30eacd20bda02262c8ec319ffc22b53674a5dbdecde",
	"portfolio:full/ipoisson/cap3/duration=0":       "fa1998d91a436d4bbbb398791a54de673c5b587b6ae72959c81f43fa73c6c875",
	"portfolio:full/ipoisson/cap3/duration=6e+09":   "8afcd365ab9abbdbd4ab281c744fbec634fcae67ca4df22109703aca0a7760dc",
	"norepartition/poisson/cap0/duration=0":         "03907bbc1ae85129e246a865bde3a461036ec21fc8fb8bb6266d3b459b57adb8",
	"norepartition/poisson/cap0/duration=6e+09":     "1cca694c24582e6145aec7f1f42b116e2bd7390f53eaa7fc99fcee397f86026f",
	"norepartition/poisson/cap1/duration=0":         "083a68e26ef004097282d97e7276c5ab35e38e991f200b55da4146d1b9b33fc4",
	"norepartition/poisson/cap1/duration=6e+09":     "230559725602412b10af082ba8eabbe6237d8f38113ff84ec98604fdc4a68eaa",
	"norepartition/poisson/cap3/duration=0":         "03907bbc1ae85129e246a865bde3a461036ec21fc8fb8bb6266d3b459b57adb8",
	"norepartition/poisson/cap3/duration=6e+09":     "1cca694c24582e6145aec7f1f42b116e2bd7390f53eaa7fc99fcee397f86026f",
	"norepartition/batch/cap0/duration=0":           "f4e40584bf50fa38ead8efa2bca9f425b564ca30e70c690b1b89be22bb586c2b",
	"norepartition/batch/cap0/duration=8e+08":       "f97961341751bc86d2322638bbc56b3851d0a25381f25fec64f530cf55db4a5a",
	"norepartition/batch/cap1/duration=0":           "1ba320687d11e36563bbb03c807227d29c5fd0a6282fd35c88999c2bf6282331",
	"norepartition/batch/cap1/duration=8e+08":       "4ce9656d3a0e6dd0845b4d033247041ff6e08f3513c38f8c7ebfb01f0374bf90",
	"norepartition/batch/cap3/duration=0":           "0e920c835d510231c591b2ea52bc1e71fef38229ce8d74440ac8c4f32383492f",
	"norepartition/batch/cap3/duration=8e+08":       "f97961341751bc86d2322638bbc56b3851d0a25381f25fec64f530cf55db4a5a",
	"norepartition/gamma/cap0/duration=0":           "cb3c5cb0cfe1c294d7f7cf3c367fe43dfe727b7777f35b65e32ded5f74ff7e6c",
	"norepartition/gamma/cap0/duration=2.8e+09":     "5b9b77e5b301e7490eabfd2857eda643ddf508c0da76c96e1559f94d56354c57",
	"norepartition/gamma/cap1/duration=0":           "efff28996fe10e319acb86e1cf5909afcec158ac4d87dfe639a9eb394be55972",
	"norepartition/gamma/cap1/duration=2.8e+09":     "9bad6dec6977e2ebdd8ce33664c2aa7f9702c1d27ac9f96b8dd87a40fc90c16a",
	"norepartition/gamma/cap3/duration=0":           "079a8a126d54db8d13a1eca9e76b6afdcb27a50d367d4c22ce0dd9e5b0b708b4",
	"norepartition/gamma/cap3/duration=2.8e+09":     "8f1c32ae2cd2c01f6503a9bbcbf708b057d29475a2acf0bb3fa7d6b71574f7d3",
	"norepartition/ipoisson/cap0/duration=0":        "2714127b62896baf0e6dc8f8b927c5ff6fa24ff484097f74075fd3c2d3579877",
	"norepartition/ipoisson/cap0/duration=6e+09":    "fefe023b06c1a52dc51341fccb0b3986fb2331bbde83ba0faebbdcc711536ce3",
	"norepartition/ipoisson/cap1/duration=0":        "0cabcea9341f639e8ac9fe59bca17157b466951c42fdbb379c295a2e6746529b",
	"norepartition/ipoisson/cap1/duration=6e+09":    "9b5f0f8e0582155c200cb837333f5b2d5b439d3fe5f836c404d7e9bad8b051ea",
	"norepartition/ipoisson/cap3/duration=0":        "df8dbc7aeaee2b6e73f841dce0a5b5525bc4c8f5d5d5d7551c7b97e7b5943f0b",
	"norepartition/ipoisson/cap3/duration=6e+09":    "1b05cb80df02ac6f783af417a4615216538ccf16a25fbb7bf63067c1a05162a3",
	"RandomPart/poisson/cap0/duration=0":            "33f1910c19788a1efba5f303e2f29770f0a43d6425eea1e73026c935aa5d6576",
	"RandomPart/poisson/cap0/duration=6e+09":        "d6708bd16add7f903d9763a8fd78644aeb1f8fa1ce0b076392a6534ca7df384a",
	"RandomPart/poisson/cap1/duration=0":            "83e33440eb6b3f0572a006a1c67fc3b529b0f73b38a628cdd69c2ae880164035",
	"RandomPart/poisson/cap1/duration=6e+09":        "87bba75859e3af8d02223fc50afc81ec83d976efe87ae0045978f9c32c4a1739",
	"RandomPart/poisson/cap3/duration=0":            "f1ee6861b581f267f40afbf9fabc3f9648bd0c6dcbf1596de8221595ecdce900",
	"RandomPart/poisson/cap3/duration=6e+09":        "d5dc9179d0cac2754d45d90c743b4232ab9fdbdf1c1a8b19df8784ef3cbd5969",
	"RandomPart/batch/cap0/duration=0":              "1d8e48ddae54f18f04b73c8a36648407e876af4fcc7e476d99d70c25824e3273",
	"RandomPart/batch/cap0/duration=8e+08":          "934c3b6646ed57697330d952f09d3b2de6b80f005b88c3cf40ae4d94c615075e",
	"RandomPart/batch/cap1/duration=0":              "ee471afa9c24a891d3dcb90cab7c74d440e615d64c2a3ccea57035104c71ffae",
	"RandomPart/batch/cap1/duration=8e+08":          "a7454d03bbad53e5983a0a02d777bd1702e07185bb06782ab3266fb7ea6a896a",
	"RandomPart/batch/cap3/duration=0":              "ecd41d08f7f290254d3b3144bcc3aec42d98d5296e7780bd24d571c58e79fed5",
	"RandomPart/batch/cap3/duration=8e+08":          "23b4495dda181275ae758a51a161c18fc1c862aab49f83a7250a08767c1040aa",
	"RandomPart/gamma/cap0/duration=0":              "bd1f8c76da16b7f804aa7cc7e31c3474d36a0f833dea2e5f9accdc161741b95a",
	"RandomPart/gamma/cap0/duration=2.8e+09":        "8fe922735b6b678bfa3226fe8732fd1c7184bc23e1d1db46f122aedddfc6eb83",
	"RandomPart/gamma/cap1/duration=0":              "3f64abad6dd2821797be5ee959ad299086c24d86b8bd3abdfb2e7324c02e63a1",
	"RandomPart/gamma/cap1/duration=2.8e+09":        "0a5a18019913c4f22197071c321ba1fd9e12c4b92e63039d538a51d7daa438d6",
	"RandomPart/gamma/cap3/duration=0":              "e53c373397f5a6e0d16e38de07c35bd9e4b610cbbe8498f3a8f25fc12d4a5887",
	"RandomPart/gamma/cap3/duration=2.8e+09":        "ced98f7119240b87d39bed0c24059fa5c9b040bafd7597fed3dcd7e7a8c97880",
	"RandomPart/ipoisson/cap0/duration=0":           "9996d94108e75576982610254859980c52093c360697ed60848525f0b23774f7",
	"RandomPart/ipoisson/cap0/duration=6e+09":       "eeeac43534be8eb1ee094b52e6c9208bcc2adb116c7249a31a4d5880a1ba83fc",
	"RandomPart/ipoisson/cap1/duration=0":           "d06a0a1a4b3ac62a10228b78a9cd6bc60dc141fe22a607dc7564322ee4b4e1af",
	"RandomPart/ipoisson/cap1/duration=6e+09":       "422b49f564baeaaa53a1b33f19bbe591cd389dc9f4d97e8812d66312807323af",
	"RandomPart/ipoisson/cap3/duration=0":           "0e92a11e9182c851c5fae1d4d66ee884c0bdde0c52a77a501580f17c08531229",
	"RandomPart/ipoisson/cap3/duration=6e+09":       "fc198ca90f688d703d56c12cd0e317dcb10951ebdd26bc1b47c72843128fc117",
	"LocalSearch/poisson/cap0/duration=0":           "8dc21ba9d9105a6b9eb507a989ec1d5523512367a58ef5349c879c0621ada65a",
	"LocalSearch/poisson/cap0/duration=6e+09":       "97ad21cb6729486e94853657390d4a0b22c431c4414958c5b1a2bdfe0cf32b40",
	"LocalSearch/poisson/cap1/duration=0":           "139be89846c10cadf14fe12d8941778791739c40c6423b6f7f5ee76a75ba91da",
	"LocalSearch/poisson/cap1/duration=6e+09":       "beee4ee39a21870a0c01e8ef0f782b24df541aaff792edecd12f55c32549d1a9",
	"LocalSearch/poisson/cap3/duration=0":           "e8149aadb6fbb4654e4397138ba95b47d1b5289ff85715d75671edffcfa05b8d",
	"LocalSearch/poisson/cap3/duration=6e+09":       "2040c5351e89d3771e56ceb75ee19bdd989323407eaa052a7ea18721aa0ff378",
	"LocalSearch/batch/cap0/duration=0":             "133986b829aaba7e1d3344c21d3efc43cf7a94538bbb2ed57ea5fec64949e382",
	"LocalSearch/batch/cap0/duration=8e+08":         "b44d36d52053de99a4afeedd5fdf0e1f41564278ccdb860827e4370fcb74a23e",
	"LocalSearch/batch/cap1/duration=0":             "f1f6c1ddf48db274a7d665004cc285f66e92199f1a14c6511e496f0de6ecc3bb",
	"LocalSearch/batch/cap1/duration=8e+08":         "ab25898591d5a03626dfdcca0e61b43b92235dfc34c1a4a7b55b3ebb303b88ca",
	"LocalSearch/batch/cap3/duration=0":             "25cbb7f401afce7ce1f8be062643103dab1c65ff86b89962dd291706c9c82ca8",
	"LocalSearch/batch/cap3/duration=8e+08":         "369a31249717a2bbc852ca8197ba9d485b783a2b4483fb59504fb95782c27f22",
	"LocalSearch/gamma/cap0/duration=0":             "b1ad8a214184f729186fb82b969c172dad4f60ba3792e5f5f1dada6a0257c8d4",
	"LocalSearch/gamma/cap0/duration=2.8e+09":       "749b3e691eb3ce2b00b2f6a77541b7dae757d0c25a2782c6cd37f8d2544989d2",
	"LocalSearch/gamma/cap1/duration=0":             "cc367f4c30e83f42f4d9a731863b88a26cd0059016fffda56663e0fc74dd0f02",
	"LocalSearch/gamma/cap1/duration=2.8e+09":       "42f474d132ad950da2e63b629ffc0cd705ede8e1ee31a1811fd67dfd820dc762",
	"LocalSearch/gamma/cap3/duration=0":             "898b8349ae7abe55dbf55599d5f470b68a4cd57bf01b3fc8458f465f952488f0",
	"LocalSearch/gamma/cap3/duration=2.8e+09":       "1d267b7db1295521cf2c8bb03ebffdef3f1a6eb35510510a3f9069ca8d4b7957",
	"LocalSearch/ipoisson/cap0/duration=0":          "615b62361fa5849779f88a97756a6a53af53a4733dd72c8f0bc466718fae6922",
	"LocalSearch/ipoisson/cap0/duration=6e+09":      "fef8d0a1150a1bfa6ffa298689a6537922752ede00094efc530482a180f36882",
	"LocalSearch/ipoisson/cap1/duration=0":          "7e5a4a055b9926ee13765d8a7def63f8d3d0d822254978dd5380c451f4cec5fa",
	"LocalSearch/ipoisson/cap1/duration=6e+09":      "bf63b2db481f824390d13509d543f20bf8e909d7dc92b998782b4c09bb76de0c",
	"LocalSearch/ipoisson/cap3/duration=0":          "a6a11c8245c57284b574e78096e0bcdccd5f28d2ee75fa741adaac79c620842a",
	"LocalSearch/ipoisson/cap3/duration=6e+09":      "5f5521d41ca229cbe5b52e694bb0254b35c4a19533041c1e021afa7ff11929e6",
}

// TestSimulateDigests runs the single-node simulator over a matrix of
// policies, processes, residency caps and cutoffs, compares each run
// with its pinned digest and checks its sample-path accounting.
func TestSimulateDigests(t *testing.T) {
	policies := []string{"DominantMinRatio", "portfolio", "portfolio:full", "norepartition", "RandomPart", "LocalSearch"}
	for _, policy := range policies {
		for _, st := range simulateStreams {
			for _, maxRes := range []int{0, 1, 3} {
				for _, duration := range []float64{0, st.cutoff} {
					key := fmt.Sprintf("%s/%s/cap%d/duration=%g", policy, st.spec.Process, maxRes, duration)
					sp := &des.Spec{Arrivals: st.spec, Policy: policy, Duration: duration, MaxResident: maxRes, Seed: 7}
					sc, err := sp.Build()
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					r, err := des.Simulate(sc)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					if (r.Truncated > 0) != (duration > 0) {
						t.Errorf("%s: %d arrivals truncated", key, r.Truncated)
					}
					checkSamplePath(r, model.TaihuLight(), key+": ", func(check, format string, args ...any) {
						t.Errorf("[%s] "+format, append([]any{check}, args...)...)
					})
					sum := sha256.Sum256(fmt.Appendf(nil, "%s\ntruncated=%d maxqueue=%d replan=%+v",
						onlineDigest(r), r.Truncated, r.MaxQueue, r.Replan))
					if got := hex.EncodeToString(sum[:]); got != simulateDigests[key] {
						t.Errorf("%s: digest %s, want %s", key, got, simulateDigests[key])
					}
				}
			}
		}
	}
}
