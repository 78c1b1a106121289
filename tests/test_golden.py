"""Golden outputs: SHA-256 digests of scene text and CLI stdout.

The digests pin every vertex the generators, surgeries, duality and the
section evaluator produce, bit for bit, and every `validate` verdict,
`helly` report and `find-line` and `certify` line, so a rewrite of a kernel
underneath them (hulls, Minkowski sums, merges, the convexity test, the
Helly check, the point-to-polygon distances) must reproduce the old output
exactly.  The `helly` report prints only the largest subset residual,
so the sorted (subset, residual) items of `helly_verify` are pinned as well.
A digest that changes on purpose is recomputed with `golden_digests` and the
reason goes into CHANGES.md.
"""

import hashlib

import pytest

from ccproj import cli, gen_quadric, gen_random_fan, helly_verify, serialize

SCENES = {
    "quadric-12-64": lambda: gen_quadric(12, 64),
    "quadric-48-256": lambda: gen_quadric(48, 256),
    **{"random-%d" % s: (lambda s=s: gen_random_fan(s)) for s in range(5)},
}

COMMANDS = {
    "section": ["section", "--theta", "1.0"],
    "surgery-s": ["surgery-s", "--arc", "0.2,1.0"],
    "surgery-p": ["surgery-p", "--arc", "0.0,1.5708"],
    "octagonalize": ["octagonalize", "--dirs", "0 0.7854 1.5708 2.3562"],
    "dualize": ["dualize"],
    "roundtrip": ["roundtrip"],
    "chi": ["chi", "--plane", "0.3 -0.2 1 0.5"],
    "validate": ["validate"],
    "helly": ["helly"],
    "find-line": ["find-line"],
    "find-line-browder": ["find-line", "--method", "browder"],
    "find-line-dual": ["find-line", "--method", "dual"],
    "find-line-subset": ["find-line", "--subset", "0,3,6"],
    "certify": ["certify", "--line", "1 0 0.1 0.2; 0 1 0.3 -0.1"],
}

GOLDEN = {
    "quadric-12-64": {
        "serialize":
            "d85145a84da0444c790dccee385aa8ffab853eab0638edd6efcd20f3e90be389",
        "section":
            "0:53fe93e8e12be993742f8cd205ba9de6c60a8ddec616ada58b5107245d594066",
        "surgery-s":
            "0:51eef85d59807dd875bd1ea1c75e2ad7a82b82f94a5275130b7d59c414654136",
        "surgery-p":
            "0:b618d1c69147cf313e5420b9fdd67d8ded4896af6b8b3a06bebe66deffe40e5d",
        "octagonalize":
            "0:82d5953bf0fdaf23ddb7fcc90f705407937545acd8d392ccec3d23ed6b5eaff9",
        "dualize":
            "0:36b8fe4480f5a5f812cd86d79c457e639755c167a250b42e285ec203e4bc8c0c",
        "roundtrip":
            "0:35534b9a62076ee7bfde2baa591964f5dfb6627da17956f4cdc408ad8666402d",
        "chi":
            "0:75a212db998a170b78098b3eb7bb04ba8d2fdbf8b72b607f5057b50aa315b227",
        "validate":
            "0:f4d8ecca1d5ff3ffbee34fabdbb771c0984e8b3eeccf826514a1cbbaca252961",
        "helly":
            "0:e5a51fd2a0787351a0e58c00219133a4c495fd1a4b289ead07309af97f870b21",
        "find-line":
            "0:5a41d2f072e5a0e784adccbc52a272069420fc867e56a70c88d6505858960b62",
        "find-line-browder":
            "0:507f0e62da21525bb58225ded9cd17ad5693d0751a1365e4ba3f205b5e23bcbd",
        "find-line-dual":
            "0:47226702d0e5c42b4c930ca51e140bc60f3040668a684f0442d8b666b4e78a46",
        "find-line-subset":
            "0:d9d388209377a49e464cedae3b31cdedd201cfeff51f42885db3661d2b718352",
        "certify":
            "0:7f358e402184c2fffc9bd93175b2e8d30853c6400d1adea8f7c6ca55ccabeb79",
    },
    "quadric-48-256": {
        "serialize":
            "d257bf00f0e87bd55bdfe70672ae2027046320e4db14cc642f9d437c2e2c4e50",
        "section":
            "0:69fcb76114a4b43f14ce1898dadb0d43004ea562bdf589c66f615035f335fdbe",
        "surgery-s":
            "0:fd338774a4417b5886cf7b4478ad7e3646d6de4f8eb5b7893dd6e3d9cf0d2f8b",
        "surgery-p":
            "0:58199128818f0f443c7c76db8691a474495f26a363f0065c4f34502ef41ec01c",
        "octagonalize":
            "0:ebab9fb59a64af3833d0cb50c5b601e8eab8f1225fd81b3d13fe2c76d293c0e0",
        "dualize":
            "0:438a38ca18913d0926235487ff23b2854eabede8e937c54e675df7e6c6eb36c6",
        "roundtrip":
            "0:79e071b9f5c5d585e8fdb9d65c15312eec941c0a163679d7bd7671a415b77af1",
        "chi":
            "0:6c20342a123b75981686bbf09f7b4e18661f010ffce340b9dc2edd7bf54887d5",
        "validate":
            "0:f4d8ecca1d5ff3ffbee34fabdbb771c0984e8b3eeccf826514a1cbbaca252961",
        "helly":
            "0:e5a51fd2a0787351a0e58c00219133a4c495fd1a4b289ead07309af97f870b21",
        "find-line":
            "0:2bb6c4439bdb26b67af4a70d45da39ea9bb5c9e03a3dbf0d8cc7a9e6354647c8",
        "find-line-browder":
            "0:67beb81463183b82ee63a5517557dbbcb0bc4a2bb54a5463b83e032d2c8de5b8",
        "find-line-dual":
            "0:c0a0032c021498d93ca9ee1c724b98432af1bce12650d078b1f6618a3eb14d37",
        "find-line-subset":
            "0:d70b27bef94d92c31ca8c49aab75fe6bdab456d52580c6dbd14058afd74e0640",
        "certify":
            "0:cdaeb019d8ecb6971054ce1c76c62717f615d455b46707be5d3f34fd5f912ffc",
    },
    "random-0": {
        "serialize":
            "2d8c7462dff37fa05f45ee351f05d8d9607062f7fa9da29f513669a3af7aee0f",
        "section":
            "0:268d299919c8567a85c7f7e9a427703f35d7409359442a0b55398c34b893efe5",
        "surgery-s":
            "0:1e9d1db8fdc7e92983da3a7b31a2fd3de7d24c2f8d2872ad4dd8cc9dc1e96442",
        "surgery-p":
            "0:7b226a13aac7920cbf4e78b0a91032d3dc39ff4d28f922b9acf0e9330a9823da",
        "octagonalize":
            "0:6a73e3b4e28e8f8e80cc952078faf7f49be8e3341c0bd3d9ef9e0a206a7babbf",
        "dualize":
            "0:c84f79fc02a0f4277c4ec5ed464e4bffdc9c6285d02dff1a65510e9ca13ef551",
        "roundtrip":
            "0:d1904f41afb89d30cfed3b625d7a4e32fefa0d96064a275d380099760f710a3a",
        "chi":
            "0:bb8a8604b37cb08dfbfe8ae01516abcec24938f89fe720a94cc2b07627668b80",
        "validate":
            "0:f4d8ecca1d5ff3ffbee34fabdbb771c0984e8b3eeccf826514a1cbbaca252961",
        "helly":
            "0:e5a51fd2a0787351a0e58c00219133a4c495fd1a4b289ead07309af97f870b21",
        "find-line":
            "0:c03ab1a272dadf92589a398ec41ca48026c243fee52996ec40f7c163ea089f7e",
        "find-line-browder":
            "0:5e16e4851895ccd5cba73c497e2d281c794c87e8961db8595c1b94202ddb61b1",
        "find-line-dual":
            "0:f82071cd9d51094f7d2a1c656f0a28e6b0ca17862c4e0abe99bc96cb0de75cfc",
        "find-line-subset":
            "0:d495c3cd41cca7432bb1a3dcab9788f44f72fdb987dc53dec0ab764e41d52757",
        "certify":
            "0:c07ce8aa466c80b1975d08dd4bee9803be71522744388af1309000cfec0fc1fa",
    },
    "random-1": {
        "serialize":
            "5481786461fd06d36c2dd288f094470a716ebfc9ff78bb14d9804b8cc0d1c1ba",
        "section":
            "0:bd8743c381f21026be8cb83f8fcb8b79c2d2771e0e391ccd1cab535154da82d2",
        "surgery-s":
            "0:da6eb9f78920cbed72ee100a919806c1c44ac182185bb84c93063d4e4ec6bdcd",
        "surgery-p":
            "0:6e15f1c614315418d4761a6357b4a8b8c3449b5162cc155b76e126a967f5be0b",
        "octagonalize":
            "0:409d1369c7c8b05d20df575c54c55af1ddbba3a4a27050a8175f5cefe02d7b2b",
        "dualize":
            "0:fb513e963b0a77609cafcb55a37e9ac360e149bbaf9993fb954b6fc7d99b646e",
        "roundtrip":
            "0:c1ad27487e685fca295ce083e3648ef50290381e7131b592e42e7cfb7106b6d3",
        "chi":
            "0:9d272add8cf24f0b0b0e5853c0ad81c5111781a53513c0b2cb612d2fe5e2acdb",
        "validate":
            "0:f4d8ecca1d5ff3ffbee34fabdbb771c0984e8b3eeccf826514a1cbbaca252961",
        "helly":
            "0:6ea650e00b3e01d18d98994c1d7c1a2f8a144097432e4582d600a72be17cef6e",
        "find-line":
            "0:e8862cefd8ddd94fc3beb6c1f4a21252d9a5684336413cc93b0e29a889adba0a",
        "find-line-browder":
            "0:d99a06c6d79452d5ca01d18690f0e3af43b4c761a039a0433f52d383bf674ea3",
        "find-line-dual":
            "0:7212d4b99507d7685bf527424b5bc1a71909e8332a9f5ad17db8f71e97abd9a6",
        "find-line-subset":
            "0:c45f51ae16dff8b936ab8fd9ab23fe39e0ebb6f0f8d8243b6a5b6f548e6b96d2",
        "certify":
            "0:a069a5c2a582d6fb562af96e29ed10f1c4266d67a4ec304dbb2ff73a7ea1ab62",
    },
    "random-2": {
        "serialize":
            "4282f83d8d6090de5946f19ddf88375af3174f6f59290dd1f4cc8c4be15e72aa",
        "section":
            "0:d8f2f51a25d9ffabf96429da7d9e78216fa4f48e64ce3853e2cb1bdd92d22ac6",
        "surgery-s":
            "0:76d0f0736c2c46e50f00983292f472549f221dfcda9afcf5631309c927a6c793",
        "surgery-p":
            "0:1a4589eb5de29f86d41659dd7db46c1b6057712b99a526dbd38e58254c982a2a",
        "octagonalize":
            "0:08b01050935312edde3e2b8c3e20ebdaaa6a094f64739948ad2a0355f05544c8",
        "dualize":
            "0:7e04a5191f4b6472b2b9fe1bc4cfce2f02330ffb2e7064c4288d24c105e93a7f",
        "roundtrip":
            "0:bd1cca621eec1f470b439771493b47d067e092ee67ec7dac05f5f5f1222613f6",
        "chi":
            "0:aa523d8014b7bba94fdaba4f1fe119f9b4ebeaf081f3127cb4a935596e855257",
        "validate":
            "0:f4d8ecca1d5ff3ffbee34fabdbb771c0984e8b3eeccf826514a1cbbaca252961",
        "helly":
            "0:e5a51fd2a0787351a0e58c00219133a4c495fd1a4b289ead07309af97f870b21",
        "find-line":
            "0:e90ed0f19ffb23d9455f412432e228b29f276ebffa1f26c74cbf2e6d0655dddf",
        "find-line-browder":
            "0:13a7f5fb4b7b90144bef0bf7357e24294cb271e4ba7f586ba18216843fa12848",
        "find-line-dual":
            "0:acbf3621dc8569d8b7c3db894da850f6c45877a925ae95aa79e1ff3fb6108e43",
        "find-line-subset":
            "0:1ecbf1ca084991444a97d6ab23e0aea0dee82fb81dd1298df48bdf59751bbf8d",
        "certify":
            "0:fa1c0a540741b689e10c7dff0cdcd6ebab0756407e201c68693f8c81cc4d8fc5",
    },
    "random-3": {
        "serialize":
            "26e2e38bbd200912e6d8ed9009e5f368df7cb7905abd2b5aacd05f6b1ec4881d",
        "section":
            "0:be1a526d8501445876891e8cf67cf25ae151adde20146360c283deb4c9421102",
        "surgery-s":
            "0:399a44338228837b3ebb7e01aff89207d736a0b1d38b08f604fecbbeb942389d",
        "surgery-p":
            "0:737766836ecaaa233f0289af60e902704101f43d0d5febc71f9a11d0f9dd8907",
        "octagonalize":
            "0:94ab92b7a78c2f56be0c3b8e34bdc675f79414e9ace91b76b81df43d5fa5f283",
        "dualize":
            "0:812e1126d3664d383576e2dfe48e9ee1e8926c33c916b0cd60f851766d0e4187",
        "roundtrip":
            "0:055c5dab59fc821c53a8c3ff07eaf3a211d71669d99f14591afc20aef54a662c",
        "chi":
            "0:4b0fb17aeef44bd330a87a6d960169dd855236e9cb1879efe327f23a637241dd",
        "validate":
            "0:f4d8ecca1d5ff3ffbee34fabdbb771c0984e8b3eeccf826514a1cbbaca252961",
        "helly":
            "0:e5a51fd2a0787351a0e58c00219133a4c495fd1a4b289ead07309af97f870b21",
        "find-line":
            "0:00b8a2b0e58edf217b40980017fbf4a097b3089e36c7791b097bf2d04d70d3bf",
        "find-line-browder":
            "0:53a003eec7b035f64d57e1b690f944cb09b0ae87e48cfe6ba037cc2c8d094f8a",
        "find-line-dual":
            "0:385fef3e3f5a5669550388783c44fb1480203b2c5d9977a05008266fd6b5c509",
        "find-line-subset":
            "0:1b28caba4e0642a870856fa3b1b0463583ae3d0afbd06a55e1552fc88e861ad4",
        "certify":
            "0:8fd294ad800a78fb95d009e2a80387b731046905e247127a0cd99b76b57d5c78",
    },
    "random-4": {
        "serialize":
            "2f1620c5ddc5871c274bdf4d0eeebc328f3aa8837a2e2cfc1f27954b4fb59809",
        "section":
            "0:2e5f8985b4f13c3fab3d805fe2d00148fff04b4fbe9089bc28358b3efbafe030",
        "surgery-s":
            "0:311ba187d2c1814fa28461e65a35c00edf2a712c3188e41103e9a5a04d380e7b",
        "surgery-p":
            "0:a1636451e175703c0680fc7b1010d36cd8c53de7ed5577eeb97d15998e4a5bb7",
        "octagonalize":
            "0:2fe70b4e8384982ddfc0ce1dfc978ff1c893dbca17e7735e39eb40b8bede6183",
        "dualize":
            "0:f154e8d2ca36f1588cf380d52739d821934f051f70b7215bac7978f3482dafd9",
        "roundtrip":
            "0:e1b20a88b238860c8d78baec2b43f7cfb8c56f9f84450c5e6900d133f39ca118",
        "chi":
            "0:70919e6895b14df45fec3725020df15bbb8047e82cb035130822507267ea8d7e",
        "validate":
            "0:f4d8ecca1d5ff3ffbee34fabdbb771c0984e8b3eeccf826514a1cbbaca252961",
        "helly":
            "0:e5a51fd2a0787351a0e58c00219133a4c495fd1a4b289ead07309af97f870b21",
        "find-line":
            "0:c5a955fe3629d702d53fee31ee69fca6cad2be0063ee1b6c9164282cca724b7a",
        "find-line-browder":
            "0:11bfe401638534943e6cc03ef7c76f58177544b26b2cf292e18f11b134bfb5b6",
        "find-line-dual":
            "0:28cd9440e65d3699501a220039c86fdef0032049544ac2a5d84b43be68b17e02",
        "find-line-subset":
            "0:c57362f2ccbb4b32126dc53d89afabc0044cfc20a4e7708ec1a63e6360a09214",
        "certify":
            "0:800cfd14af2ab2b6e2c7c2106a91010b9869bb828dc5f69cf0041f18c135dfcf",
    },
}


HELLY_SUBSETS = {
    "quadric-12-64": "20f4888b35ecb530af75b8e15211a037cfcffa56d171925efdf988cdcc6ed28a",
    "quadric-48-256": "dee59edef5a3acd29349a317fb586263969ea53f8903d88152d0d34a93638898",
    "random-0": "1c4471e44541d3e50296af0a1df4fd98e4ce9bd0d5f0f9901c42dff31e67de15",
    "random-1": "e8bc7bc4aa7a1207da8bac6b9769b8a0aac1cdcd22c434a29fb9737e60c24401",
    "random-2": "20f4888b35ecb530af75b8e15211a037cfcffa56d171925efdf988cdcc6ed28a",
    "random-3": "1c4471e44541d3e50296af0a1df4fd98e4ce9bd0d5f0f9901c42dff31e67de15",
    "random-4": "aa658a763abc5be3ec4867711a82b6721111a1adfa592cc4ce8a04beb3d4c61c",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_digests(name, tmp_path, capsys):
    """Digest of the scene text and of each command's exit code and stdout."""
    text = serialize(SCENES[name]())
    path = tmp_path / (name + ".json")
    path.write_text(text, encoding="utf-8")
    out = {"serialize": _sha(text)}
    capsys.readouterr()
    for cmd, args in COMMANDS.items():
        rc = cli.main([args[0], "--in", str(path), *args[1:]])
        out[cmd] = "%d:%s" % (rc, _sha(capsys.readouterr().out))
    return out


@pytest.mark.parametrize("name", sorted(SCENES))
def test_golden_outputs(name, tmp_path, capsys):
    assert golden_digests(name, tmp_path, capsys) == GOLDEN[name]


def helly_subset_digest(name):
    """Digest of every (subset, residual) item of helly_verify, sorted."""
    rep = helly_verify(SCENES[name]().fan)
    return _sha(repr([(sub, float(r)) for sub, r in sorted(rep.subset_residuals.items())]))


@pytest.mark.parametrize("name", sorted(SCENES))
def test_golden_helly_subsets(name):
    assert helly_subset_digest(name) == HELLY_SUBSETS[name]
