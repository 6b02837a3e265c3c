"""Golden outputs of the command line interface.

Each command's stdout is pinned by its sha256 digest.  The text and JSON
output is the package's behaviour contract: a refactor must leave every
output byte for byte the same, and a deliberate change of output format
updates the digest here together with the code.
"""

import hashlib
import json

import pytest

from hftvertex.cli import main

FILES = {
    "counts": '{"0": 1, "1": "-3/2", "2": 4, "3": 0, "5": "2/7"}',
    # pairwise coprime denominators: their lcm is their product
    "coprime": '{"0": "1/7", "1": "-3/11", "2": "5/13", "4": "-2/17", '
               '"7": "4/19"}',
    "model": json.dumps({
        "rank": 2, "p_total": ["3", "2"], "p_image": ["1", "1"],
        "subobjects": [{"p": ["1", "1"], "factors": True},
                       {"p": ["2", "2"], "factors": False}]}),
}

GOLDEN = {
    "vertex --rank 2 --order 2":
        "53edf0ad627cbcb2c4d56eac29d50824bad5e7dbcb1e0943017996709b639194",
    "vertex --rank 2 --order 2 --format json":
        "2b554d1ba1e91bc46e685deea2e92247204312d5d78088b51e7475fec1a7a794",
    "vertex --rank 2 --twist 1 --order 2 --mode paper":
        "a315062b863151cd73dbe26dc61175122b28e00a2882f5fe51a59ddbc84c3836",
    "vertex --rank 2 --twist 1 --order 2 --mode paper --format json":
        "7c02176256fbd80d3f001e0660bbbf648c0f7442ebf5b5ef0568dbb67ad5acd9",
    "vertex --rank 3 --order 2 --mode paper":
        "11940594598cadb33ada3e2586ca63e86465354f10c4824d5e9ffc912ef436f4",
    "vertex --rank 3 --order 3 --format json":
        "1329865b533320569b16b19a5b6f1d0d8b393e9c745354d40179bc536f6cfdf7",
    "vertex --rank 3 --order 4":
        "833d5c24be3beb28f4a9b49927e8141c5ea2955f389b93a32382c53a4bc739b1",
    "vertex --rank 2 --twist 1 --order 3 --mode closed_form":
        "af51dbceba62993ac3f53aa214e53cc6658866e02501f32ef7b8c2b9e585781f",
    "vertex --rank 2 --twist 1 --order 3 --mode closed_form --format json":
        "4dd57e54b22c7c14b4531dafa5a1f272d66ba7f644a7faa5738c3ee880d160da",
    "vertex --rank 2 --twist 1 --order 2 --specialize s3=-s1-s2":
        "82d2a51b3e7bb2f15937f042ed1bcc6d3c8d25120f40f57e6ef5785b67146536",
    "vertex --rank 2 --twist 1 --order 2 --specialize s3=-s1-s2 --format json":
        "6499545415ec22757b3970545d30c80e70c616c726b4723f6a5f6887de7ed978",
    "vertex --rank 3 --order 2 --specialize v1=v3":
        "db654e0abfcbb59adf5c86a9b50492f70e3f8b9311536d9bba8d072ef8044298",
    "vertex --rank 4 --order 3 --twist 1 --specialize s3=-s1-s2,v2=v1":
        "567840f825b980bee72a6b8d008f5137c111240d9fc6c89f1dc69f00bb6215ff",
    "vertex --rank 4 --order 3 --twist 1 --specialize s3=-s1-s2,v2=v1 --format json":
        "e771c8cb14b1789f9240a1819dd0605dfa578dbbda664e82e2b81c3e48d218f6",
    "vertex --rank 5 --order 3 --format json":
        "bba6bb6a0bf11258c24329ae9ebf527df0d8a353919c1859dd7bf70fee3b6499",
    "vertex --rank 3 --order 5":
        "c5596eb9612830fa0da9764930bad2be81cd65d5379a5c4014d4c62e7cd8cd8a",
    "vertex --rank 4 --order 5 --mode paper":
        "6994452e80d2d821945ecf25c27321d80d882ec5a2f81968d650c61790a10504",
    "vertex --rank 16 --order 2 --mode closed_form":
        "98d7ac0aa484522229f7269c779f23dc9218a52deff2e3641afd68759f12bb46",
    "vertex --rank 4 --order 6 --mode closed_form --twist 3":
        "421cd77f55fd632dd86a89f7d3028d4108ea6beed1bbbb8fd9c7a96ef6b7a9cd",
    "vertex --rank 4 --order 6 --mode closed_form --twist 3 --format json":
        "09180267fc022bb36588c227282ff18f927512d5711d3b2bc9b61098d8b4edf8",
    # s1 = s2 + s3 makes the closed form exponent a bare scalar
    "vertex --rank 2 --order 4 --mode closed_form --specialize s1=s2+s3":
        "8fdb23046c4ceafc301daa1b538064ea12727a835344750ea26c42f5da53c7fc",
    "vertex --rank 1 --order 40 --mode closed_form "
    "--twist 99999999999999999999":
        "1b4fbba0c432f9cfb04414bd0765318c943112235c77d011e10b878326d2f1a6",
    "compare --rank 3 --order 3 --specialize s1=2*s2":
        "84d1585dfca919c594a5a619220b22fdde35f922f5eb9d57240de4a5576ab161",
    "compare --rank 1 --order 10":
        "86618d1859a4d0a7e745ccfc05d5b379c0c0f7d11762d47fa7165af9030d8ca7",
    "compare --rank 2 --order 2":
        "d6bd12c7034c7ca83a43858621d350172c5045729122bbc993ca9bbace92e141",
    "compare --rank 2 --order 2 --format json":
        "eee3ed17d6e29caf5b5f673e364e440738343804b031dd025468da7e9d3ad647",
    "compare --rank 2 --order 2 --twist 1 --format json":
        "93b9649e949e1145c489a008644bd525d849f524f9b5b3be06cf5fb0b49d71ec",
    "compare --rank 1 --twist 1 --order 3 --specialize s3=-s1-s2,v1=1":
        "7e07291f410141e6b60667c89e275d3f3928a9c30fccd888a61d4f41fc93c3d0",
    "compare --rank 1 --twist 1 --order 3 --specialize s3=-s1-s2,v1=1 --format json":
        "3372bf8fb77ee3b687a5be5da3b831d036536821f532a592f3780bc65280c897",
    "partition --p-file {counts} --twist 2 --rank 3 --order 12":
        "e4a83a265f5c77eb59519b05adb24fad24129ba5ab89a5ce148a7a68cf840db1",
    "partition --p-file {counts} --twist 2 --rank 3 --order 12 --format json":
        "f8a9da97beac223dad273d9e37e8d55b155865b79362814385ebc90986285b55",
    "partition --p-file {coprime} --twist 1 --rank 8 --order 60":
        "2024519f911aec36f8db7ed8f6eeb5d1224ab815e9dabd54c9a50cc9c6fa6a09",
    "partition --p-file {coprime} --twist 1 --rank 8 --order 60 --format json":
        "2b3dec9c177750fa8d0d63ece116b05e927a437fee7a777e08093f1b6cb0c67b",
    "stability --model-file {model} --q-poly 0,0,1":
        "2ce8f606e2583b8b0b01b9360ffaca45789cd8966fd8200ba90ceaadc22911e1",
    "stability --model-file {model} --q-poly=-1,2 --format json":
        "d042f5fe84a1129ecdbf17ba7b383d0e254130f445bff3dd4093dd540b988f18",
    "stability --model-file {model} --q-poly 1,-5,0,2 --format json":
        "4623871a2474e516f470a3651d78b119690a175869cb0170d2f3a2078b7acb51",
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_golden_output(command, tmp_path, capsys):
    paths = {}
    for name, text in FILES.items():
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(text)
    code = main(command.format(**paths).split())
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == GOLDEN[command]
