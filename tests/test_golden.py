"""Golden outputs: SHA-256 digests of scene text and CLI stdout.

The digests pin every vertex the generators, surgeries, duality and the
section evaluator produce, bit for bit, and every `validate` verdict and
`helly` report, so a rewrite of a kernel underneath them (hulls, Minkowski
sums, merges, the convexity test, the Helly check) must reproduce the old
output exactly.  The `helly` report prints only the largest subset residual,
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
}

GOLDEN = {
    "quadric-12-64": {
        "serialize":
            "d85145a84da0444c790dccee385aa8ffab853eab0638edd6efcd20f3e90be389",
        "section":
            "0:7ca8f5eaccbcf5d8375b69e136fde525510b7747dbb1278132890bd6a7244c8f",
        "surgery-s":
            "0:92b88a91583440941ecc51c17afc2d95ca10340062c853732ea6564fef529e38",
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
    },
    "quadric-48-256": {
        "serialize":
            "d257bf00f0e87bd55bdfe70672ae2027046320e4db14cc642f9d437c2e2c4e50",
        "section":
            "0:4227580ddcdee77d52829481b3ae6322039cf223c466e51a67497c586bd6e941",
        "surgery-s":
            "0:8dc378cb381d3937830f49325b89507323292cc74c35ae50835400baa255481a",
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
    },
    "random-0": {
        "serialize":
            "11f127a4816d767dbb57455450c9552d5c85f1c3ce34616bfdf254b50364a811",
        "section":
            "0:3c11098dbcf5b70fe6e13e4634ec805fb4a66730eafba7aa795faa5249eba889",
        "surgery-s":
            "0:95285f6645fd1064ebd8c957c1fd9900bdbce26f1cce95ebcdf69403a768048a",
        "surgery-p":
            "0:2f0d2bb58b564db23357ea345695d66e165d49920c0d27d29695cc4d559c584f",
        "octagonalize":
            "0:2726f9852c9b27c5c7aeda82c59e6ae0022589db3feaa8f0db428da5a7f24375",
        "dualize":
            "0:7b85e72fb03906ffad1304f103fb472c6a575ba4369c5fa4654d5e2fd79d72ad",
        "roundtrip":
            "0:113b17f2b3bf8b728ee50f1638a5ed09dadb244aaecee3a1117176ed54de4639",
        "chi":
            "0:bb8a8604b37cb08dfbfe8ae01516abcec24938f89fe720a94cc2b07627668b80",
        "validate":
            "0:f4d8ecca1d5ff3ffbee34fabdbb771c0984e8b3eeccf826514a1cbbaca252961",
        "helly":
            "0:e5a51fd2a0787351a0e58c00219133a4c495fd1a4b289ead07309af97f870b21",
    },
    "random-1": {
        "serialize":
            "0e9ec5eec7cb7d5abc35cd0149f9d26f65b645db8c99802874c77ef221c2177f",
        "section":
            "0:42e45f8afe2488eb5fc2e2fe228b73d8c968c3ebd332a3ccce7101ecc635e94f",
        "surgery-s":
            "0:4e23f71e2c038dc7d1e83b0880374f89fd014b10411996b25c91b393d76d6555",
        "surgery-p":
            "0:1ff3dfa98b03a078226a2492ce2c08d0b69837f242a303d7360b32d080e628e7",
        "octagonalize":
            "0:a64a4a29aee87a3398bd1b1659bb56f2df63eb9c453797b3315517498da25016",
        "dualize":
            "0:de0158161be7c05bd1943e14245a444463e326ffbfff0144a455079ffbd35959",
        "roundtrip":
            "0:22e45d006155bb93b877966a50b0ede4132d7d24d7b695e9c0f11cc6bab6d402",
        "chi":
            "0:493f945bce431ca7ba5264a2fcadf730669e6f3acd8e96a4baa6cbc3b093beb8",
        "validate":
            "0:f4d8ecca1d5ff3ffbee34fabdbb771c0984e8b3eeccf826514a1cbbaca252961",
        "helly":
            "0:6ea650e00b3e01d18d98994c1d7c1a2f8a144097432e4582d600a72be17cef6e",
    },
    "random-2": {
        "serialize":
            "4282f83d8d6090de5946f19ddf88375af3174f6f59290dd1f4cc8c4be15e72aa",
        "section":
            "0:de845837e1c9154ad5ba5bcfe96181800a9cf004b8a0500faba5308f64f7ea0b",
        "surgery-s":
            "0:ba18d644fe4ca091e214aaea54e800686d35ca93222aee57ec6e4e2c7631495b",
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
    },
    "random-3": {
        "serialize":
            "4b98803c1d456b4edd2dd1524534b932b99003b7f086522963244248630842c8",
        "section":
            "0:4fe7e2064e3893f2cae70594d0f4feb00f37c3ee9471026934bb00537e99ece1",
        "surgery-s":
            "0:99fdeca94d502adb1d5116eaa6c01649c3266b093781979afcf2551b07242d3f",
        "surgery-p":
            "0:1b37a4356c16a1d18ca17e88bd8ded7d4e66d01e515bf858836d0df1b197387b",
        "octagonalize":
            "0:82ae00e8fdaa09c112feaa81c870db15843658bd94d044e584b032a657d37e7d",
        "dualize":
            "0:23e1456c02d748018b920e2cd470ba8de672f63db55bce232107b56674429f6e",
        "roundtrip":
            "0:055c5dab59fc821c53a8c3ff07eaf3a211d71669d99f14591afc20aef54a662c",
        "chi":
            "0:4b0fb17aeef44bd330a87a6d960169dd855236e9cb1879efe327f23a637241dd",
        "validate":
            "0:f4d8ecca1d5ff3ffbee34fabdbb771c0984e8b3eeccf826514a1cbbaca252961",
        "helly":
            "0:e5a51fd2a0787351a0e58c00219133a4c495fd1a4b289ead07309af97f870b21",
    },
    "random-4": {
        "serialize":
            "784f856cd0c6fe095a675616a5ff3a58372edbd463c342c7ab19926418936a01",
        "section":
            "0:cd88e950002b8ae4656fc8eed844e7e0135d99ba8a62b7bd7a614d12bd693c55",
        "surgery-s":
            "0:8e66f2497fc24264a91c8709f1f83a5ce42281bf25c7018eece642d7042b55db",
        "surgery-p":
            "0:c91185cdeb24e873d441bc9946ca073ee52203fed2fd38de363ee1b1e43bafbf",
        "octagonalize":
            "0:b7cf6eae0254d4dc44d6cfef1eb9110b8de4ad055ea687470bf14ddb26991168",
        "dualize":
            "0:870b90977be53cd95a003fd9b04bab08fef064422d424a68618bc9766c44032e",
        "roundtrip":
            "0:e558ad64138731fd9ff86f240684930c7a213446a0f552c1d052916c6fe7ad91",
        "chi":
            "0:70919e6895b14df45fec3725020df15bbb8047e82cb035130822507267ea8d7e",
        "validate":
            "0:f4d8ecca1d5ff3ffbee34fabdbb771c0984e8b3eeccf826514a1cbbaca252961",
        "helly":
            "0:e5a51fd2a0787351a0e58c00219133a4c495fd1a4b289ead07309af97f870b21",
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
