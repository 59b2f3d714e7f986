"""Golden CLI output: sha256 of stdout, recorded before the poset kernel
(graph commands and `quasi_orbit_space`) and before the actions layer ran on
compiled index maps (the other `paction` queries).

Unlike the determinism checks, which compare two runs of the same code,
these digests pin the bytes the CLI printed when they were recorded, so a
refactor that changes any output fails here.  To print the digests of the
current code instead of checking them:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import hashlib
import io
import json

import pytest

from graphck.cli import run

from util import CORPUS_DIR, CORPUS_NAMES

FORMATS = {
    "analyze": ("text", "json"),
    "lattice": ("text", "json", "dot"),
    "spectrum": ("text", "json", "dot"),
}

ACTIONS = {
    # the action of test_criterion_9's paction query
    "": {
        "points": ["1", "2", "3"],
        "specialization": [["1", "2"]],
        "group": "F1",
        "generators": [{"name": "g", "map": [["3", "3"]]}],
    },
    # a 5-cycle and a partial transposition of 1 and 3 fixing 2 and 4, on
    # five discrete points: a free-group word search over many partial maps
    "cycle": {
        "points": ["1", "2", "3", "4", "5"],
        "group": "F2",
        "generators": [
            {"name": "a", "map": [["1", "2"], ["2", "3"], ["3", "4"], ["4", "5"], ["5", "1"]]},
            {"name": "b", "map": [["1", "3"], ["3", "1"], ["2", "2"], ["4", "4"]]},
        ],
    },
}

# graphs past the corpus.  Two lattices, as `lattice --format json` prints
# them: edgeless-9 (512 pairs, one size past the writer test's edgeless-8) and
# the omega fan of test_ideals with k = 4 (162 pairs, with breaking vertices);
# their digests were recorded before the writer rendered its tables from the
# pair labels
FAN_4 = [{"id": f"a{i}", "src": f"u{i}", "rng": f"v{i}", "mult": "omega"} for i in range(4)]
FAN_4 += [{"id": f"b{i}", "src": "w", "rng": f"v{i}", "mult": 1} for i in range(4)]
GRAPHS = {
    "edgeless-9": {"vertices": [f"v{i}" for i in range(9)], "edges": []},
    "omega-fan-4": {
        "vertices": ["w"] + [f"u{i}" for i in range(4)] + [f"v{i}" for i in range(4)],
        "edges": FAN_4,
    },
    # test_classify's gap graph, as `analyze` prints it: every tail is fed,
    # but v1 keeps an infinite-receiver gap over H={v2}, the one reason kind
    # no corpus graph prints; its digests were recorded before each verdict
    # built its reason in one place for both formats
    "omega-gap": {
        "vertices": ["v0", "v1", "v2"],
        "edges": [
            {"id": "a", "src": "v2", "rng": "v2", "mult": "omega"},
            {"id": "b", "src": "v2", "rng": "v1", "mult": "omega"},
            {"id": "c", "src": "v0", "rng": "v1", "mult": 1},
            {"id": "d", "src": "v1", "rng": "v0", "mult": 1},
            {"id": "e", "src": "v0", "rng": "v0", "mult": 1},
        ],
    },
}

PACTION_QUERIES = (
    "invariant_subsets",
    "is_minimal",
    "is_topologically_free",
    "is_residually_topologically_free",
)

# a graph case's arg names a corpus graph or an entry of GRAPHS; a paction
# case's arg is "<query>" on the test_criterion_9 action, or
# "<query>:<action>" on another entry of ACTIONS
CASES = (
    [(cmd, name, fmt) for name in CORPUS_NAMES for cmd, fmts in FORMATS.items() for fmt in fmts]
    + [("lattice", name, "json") for name in ("edgeless-9", "omega-fan-4")]
    + [("analyze", "omega-gap", fmt) for fmt in ("text", "json")]
    + [("paction", "quasi_orbit_space", fmt) for fmt in ("text", "json")]
    + [
        ("paction", f"{query}:{which}" if which else query, fmt)
        for which in ACTIONS
        for query in PACTION_QUERIES
        for fmt in ("text", "json")
    ]
)

GOLDEN = {
    "analyze e1 text": "f58315a94700ca945653ee1afda7b36f71812c89f19d55c225516bbf99728c5a",
    "analyze e1 json": "732486e572c6572e506d9a72471ed61a14e84bd4a9c58c7157bfcd31f059ff02",
    "lattice e1 text": "88867a07a69c4500346f04613f37c6510aa42c9a3070bb6b8201e6411e39a525",
    "lattice e1 json": "ba9cb4c2ad9d2ab35fc64249273625b4a4a218c898e3da7cb752f91fed4a8135",
    "lattice e1 dot": "d66014cdb28698cc90378f37fd2ff054919b57dcd258d6629c8ef9f522fc80ed",
    "spectrum e1 text": "eea165f6e14bdc2ce4edba3d20c502fbc7c631a5be5e06576044db410b4e38d9",
    "spectrum e1 json": "9e42309cbe6ebf1d9e347ac2df0182be358de7747ed06269498f960c86d39790",
    "spectrum e1 dot": "d5abc5c304a9ed87b670c3b648d5261783c0d4b678a1801eee8057d55ad510e5",
    "analyze e2 text": "8e87deed90c2dad21fa64284468506cdc08a47f9a60272d5d750ef2a52511846",
    "analyze e2 json": "6154834d3e15ed257b7f453accfe81b83248fe10ff942129258e932670b4d102",
    "lattice e2 text": "41a98d737f377ecbaf91462a0c26256b0bd7f14b17349e475771541e50abc278",
    "lattice e2 json": "c07c5edeb44b4a45f89b9482b57bd9a2e1e9ce28ba8dcc2df59527e638ee93cc",
    "lattice e2 dot": "44acc5d33740e7494742572f504cd64a976624ea2b966765aa62cc692a90980e",
    "spectrum e2 text": "28fb1bf8ea889e82c0bc60e08de39ffad2f9ac2dc07d9ec97ed7fc16d9bbd400",
    "spectrum e2 json": "9c51fac535a4f095a8510d0fa7a2c5e1e0d3e414163c247de8a730756761bb5b",
    "spectrum e2 dot": "908399315cdff6594afda2dd2874d9d43a2c0b92b2f13f189370716d6312c984",
    "analyze e3 text": "d5ecbf5cd58f9888fbb2b0265db4969dd1d07b5c058f54128f80399b68c1db98",
    "analyze e3 json": "4740793f67e4ae07ff834d92c86280719cdc631ac712d7c2bd46884b6c840ab0",
    "lattice e3 text": "5a6c406c94e723954e3c352cc3e930fb59a5bf4cd23c5b5738d24ba91bdc0302",
    "lattice e3 json": "27bc0f06127c2dfbfa09f6abd179bd6d79d2075fbc32807e8aa76cb2921ee78f",
    "lattice e3 dot": "ff20dded7f61ed66972c5741cf2e6c21fbdde7307d48b63e78034082fab9bb4e",
    "spectrum e3 text": "bf2dbd54ce1dc7cade3e25b4ee0bf374ea4ec30a0cb22bcaaab0b1820357367c",
    "spectrum e3 json": "1741f1fb2eb2ca33e3021be70108c3f74444ed64d2622df207c49358272e6c93",
    "spectrum e3 dot": "c3dd4375c37c35c3993e9a7d5368cca2efefeb1b5293138dc180ec62138ed8f8",
    "analyze e4 text": "5d877f828cfb293e64fb16c94d17b629cf9f5ff319443764886175ed47bc59df",
    "analyze e4 json": "79edf0ca5d580a7b75606c1dbe96068124c17fa4bf81cbd74aee94515fd2a94a",
    "lattice e4 text": "64f5433f2dab7748fb622b3f719fbc8e058511159b8805b5453cf7bee6fd7345",
    "lattice e4 json": "35090d62b93c24fd6ee62b236ce40ec5975f1eaf5c4d3c36bbf7cf2511349ad4",
    "lattice e4 dot": "9a13d193e8a0bb7704a0c92d51f8b35a58f58ac48d974ec3813b759c98d3e66c",
    "spectrum e4 text": "32123cdfb9443a39fc0607641045674bf03e664b493066cd00f3ca912955ec6a",
    "spectrum e4 json": "ef6419a18c9d5dfbf32863a37662edb5c03cdc1daf8ee2ad88f22a8f20981395",
    "spectrum e4 dot": "301b1ddd1874bfb726acac767fad0f9e84a2895e152be429075a7bdb71d1a587",
    "analyze e5 text": "d97d5d2ba1f4967a5d9d3b8ecf65a22589615c0c5c9d548c18065f10a9e1404c",
    "analyze e5 json": "05b5a84fffe5a6ad4ceb722dd17d2bc5354c07e1e652d65904a210f6e9a2d372",
    "lattice e5 text": "5a6c406c94e723954e3c352cc3e930fb59a5bf4cd23c5b5738d24ba91bdc0302",
    "lattice e5 json": "27bc0f06127c2dfbfa09f6abd179bd6d79d2075fbc32807e8aa76cb2921ee78f",
    "lattice e5 dot": "ff20dded7f61ed66972c5741cf2e6c21fbdde7307d48b63e78034082fab9bb4e",
    "spectrum e5 text": "bf2dbd54ce1dc7cade3e25b4ee0bf374ea4ec30a0cb22bcaaab0b1820357367c",
    "spectrum e5 json": "1741f1fb2eb2ca33e3021be70108c3f74444ed64d2622df207c49358272e6c93",
    "spectrum e5 dot": "c3dd4375c37c35c3993e9a7d5368cca2efefeb1b5293138dc180ec62138ed8f8",
    "analyze e6 text": "9161e7e95c09f4933fdd7c587989c9cffca3dad354f7560186cd5213cbbbbb07",
    "analyze e6 json": "1ccff4f9ad593687fa16d8ec4cdfb772c87268ee023b0eb98eb4e6fdf8092bcf",
    "lattice e6 text": "3c5ebc4c4029c3fb2cdb2466af034c4e0d5b9fc840af38a574e518ed73b7634c",
    "lattice e6 json": "ea9ff992519afa89a667845f20057039519737204db5f605307abf5b4b87f9cf",
    "lattice e6 dot": "b90f48410fc81c123790c3658096ddeab0fbf1d51418d3840280379c96ff9678",
    "spectrum e6 text": "641dd0f1e8932cbce23b2abe4ce6a2be878eb3bf793869a767920b0f2d90ed72",
    "spectrum e6 json": "9712d313f98ba2932da761bc47afe8d439b612154636a4fc67bea60bc03cf800",
    "spectrum e6 dot": "72297153f799b33e4b64460441c2ed9c85a261b2e9a0724baaf53c6e96450b21",
    "analyze e7 text": "e59eb81f03d1516b3e41b1c46d86179c2401c984e98a5f799204ba20845a4759",
    "analyze e7 json": "4ad8447536f5723184aeaeb9cde127a07c62112a9666d43af513a562e312d8fb",
    "lattice e7 text": "9646aca47bc1b2b0351c2c5c3479661baba62b5137ef3ed7eb90278f192ac091",
    "lattice e7 json": "533bee3bb5788294d12faf1ec1d9087ce872ba036a09213f207bbde9ea4a0407",
    "lattice e7 dot": "2231a3392778fd5ceadae34100ca05ce825b0542dcecfde3287d8abe9fbaa588",
    "spectrum e7 text": "94d031a23528315684db3d9af794c5f77169ce97bd466d32423153006b8ebd55",
    "spectrum e7 json": "ad1884376013f18b71ebca6521bc317f374d0c1dc76a4e5e7d128ed9edb31fec",
    "spectrum e7 dot": "a63878c3a93753f228283b3661507982b0b655ce8a11797c2f2f3e292163aacd",
    "lattice edgeless-9 json": "8f6cdbecbf2cd5b3b35be63c68465eb8fd5c271f35129e85afc83706797f0d7a",
    "lattice omega-fan-4 json": "5d1ace7e57956ac38908ae2a168725fa88cb70c8c350cd6054939f659839defc",
    "analyze omega-gap text": "f0139ee9df22e49fc353ccd8f71cbf3f9966ecec648cf710f24e282bcedc4a3b",
    "analyze omega-gap json": "d7f10125345703786bda983aac70619bf96506d22fbbfe99e4f95e81a08548be",
    "paction quasi_orbit_space text": "32619e774199baa17340c2edfe54d2213a9b828cda7461836d44f156a61b0cd8",
    "paction quasi_orbit_space json": "667a02e03ae7ff0d02ad61409ed9b4352bdaf4a38aa57844ee99b74396551db8",
    "paction invariant_subsets text": "5d5ce23517b7fe1a4183167315e9636a66875a13561b93fa1bb86d18edf6939b",
    "paction invariant_subsets json": "5764c077707f35f976f4bc7452f0821e512244690e475243da725219b36dbb7d",
    "paction is_minimal text": "b817872728b5880b39d6cd0c4ac8962bf738ffd454b8422340ace4c537ca6124",
    "paction is_minimal json": "0933c75a4e158ee1466e721d069d52fd3d8f99f511b246c32b1d01f9fa99db82",
    "paction is_topologically_free text": "2f2ef43ede3bdb254a20311c60772074ed01994ebef70ebd989c66106d2e511b",
    "paction is_topologically_free json": "75a6e69c6ab0d0b99552fa35a7765d0238e38854a1f86a0797a63f139cda7a20",
    "paction is_residually_topologically_free text": "c9f9017cc30f565e78ab0d4e107b60d1209cdb577be097bf558f2775c8aa0ed6",
    "paction is_residually_topologically_free json": "fbcdba2e915b23851280500723d141921523d5a638383aee23112a854d294b37",
    "paction invariant_subsets:cycle text": "8aa93f99be732cd50d7572a469c51b6e54c17f8f3655b8492cf34bb726582947",
    "paction invariant_subsets:cycle json": "cae1b8f512c181cbb900e684624929286e7f677689bec90582bd3553176966ab",
    "paction is_minimal:cycle text": "5b08232a6d60b3b1decf515d188b240f716a0318f221b726d8a413df8ca0de6c",
    "paction is_minimal:cycle json": "c53acbbdea8bc05da11b0fbec4971efc931bbec14acc1ddc03bd047f89fd1499",
    "paction is_topologically_free:cycle text": "2f2ef43ede3bdb254a20311c60772074ed01994ebef70ebd989c66106d2e511b",
    "paction is_topologically_free:cycle json": "75a6e69c6ab0d0b99552fa35a7765d0238e38854a1f86a0797a63f139cda7a20",
    "paction is_residually_topologically_free:cycle text": "c9f9017cc30f565e78ab0d4e107b60d1209cdb577be097bf558f2775c8aa0ed6",
    "paction is_residually_topologically_free:cycle json": "fbcdba2e915b23851280500723d141921523d5a638383aee23112a854d294b37",
}


def stdout_digest(cmd, arg, fmt, tmp_dir):
    if cmd == "paction":
        query, _, which = arg.partition(":")
        path = tmp_dir / "action.json"
        path.write_text(json.dumps(ACTIONS[which]))
        argv = [cmd, str(path), query, "--format", fmt]
    elif arg in GRAPHS:
        path = tmp_dir / "graph.json"
        path.write_text(json.dumps(GRAPHS[arg]))
        argv = [cmd, str(path), "--format", fmt]
    else:
        argv = [cmd, str(CORPUS_DIR / f"{arg}.json"), "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out=out, err=err) == 0, err.getvalue()
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("cmd,arg,fmt", CASES)
def test_stdout_matches_golden(cmd, arg, fmt, tmp_path):
    assert stdout_digest(cmd, arg, fmt, tmp_path) == GOLDEN[f"{cmd} {arg} {fmt}"]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        for cmd, arg, fmt in CASES:
            key = f"{cmd} {arg} {fmt}"
            print(f'    "{key}": "{stdout_digest(cmd, arg, fmt, pathlib.Path(d))}",')
