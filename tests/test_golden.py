"""Golden output digests: the exact stdout bytes of the CLI, pinned.

Every digest below is the SHA-256 of one command's stdout.  The sample,
quadrature, oracle and kink-node digests were taken while grids were still
evaluated one generator call per grid cell; the validate and check digests
while expressions were still evaluated one tree walk per point.  A digest
that moves means the code is wrong: ``sample`` promises the same bytes for
the same (generator, theta, n, seed), and every other output is promised
bit-identical to the per-cell and per-point evaluation.  Never update a
digest to make a test pass.

Commands run in process through ``copula_forge.cli.main``.  The last test
checks the evaluator under the validate digests directly: array evaluation
of phi and phi' against per-point evaluation, bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math

import numpy as np
from conftest import random_valid_expression_generators

from copula_forge.cli import main
from copula_forge.exprlang import (
    EvaluationDomainError,
    differentiate,
    evaluate,
    evaluate_array,
    parse,
)

THETAS = ("-1", "-0.3", "0.5", "1")

# (label, builtin, family order)
_BUILTINS = (
    ("phi1", "phi1", None),
    ("phi2", "phi2", None),
    ("phi3", "phi3", None),
    ("phi4", "phi4", None),
    ("phi5n1", "phi5", "1"),
    ("phi5n3", "phi5", "3"),
    ("phi6n2", "phi6", "2"),
    ("phi6n5", "phi6", "5"),
)

# the first generator of the valid-by-construction template in conftest.py
SIN_TEMPLATE = (
    "0.8308642924246422*x*(1-x)*(0.24553107329221935 + -0.8055361830246146*x"
    " + -0.40284767777328323*x*x + -0.7676265385551082*sin(pi*x))"
)


def _gen_args(name: str, order: str | None, n_flag: str) -> list[str]:
    """Generator argv; ``sample`` takes the family order as --gen-n."""
    return ["--phi", name] + ([n_flag, order] if order else [])


def _digest(argv: list[str], codes: tuple[int, ...] = (0,)) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code in codes, argv
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def _mismatches(
    cases: dict[str, list[str]], golden: dict[str, str], codes: tuple[int, ...] = (0,)
) -> list[str]:
    assert set(cases) == set(golden)
    return [
        f"{key}: {' '.join(argv)}"
        for key, argv in cases.items()
        if _digest(argv, codes) != golden[key]
    ]


def sample_cases() -> dict[str, list[str]]:
    cases = {}
    for label, name, order in _BUILTINS:
        for theta in THETAS:
            cases[f"{label}@{theta}"] = [
                "sample", *_gen_args(name, order, "--gen-n"), "--theta", theta,
                "--n", "1000", "--seed", "42", "--format", "csv",
            ]
    for theta in THETAS:
        cases[f"sin-template@{theta}"] = [
            "sample", "--phi-expr", SIN_TEMPLATE, "--theta", theta,
            "--n", "250", "--seed", "42", "--format", "csv",
        ]
    return cases


def quadrature_cases() -> dict[str, list[str]]:
    cases = {}
    for label, name, order in _BUILTINS:
        for theta in THETAS:
            cases[f"{label}@{theta}"] = [
                "measures", *_gen_args(name, order, "--n"), "--theta", theta,
                "--method", "quad", "--resolution", "128", "--format", "json",
            ]
    return cases


def oracle_cases() -> dict[str, list[str]]:
    cases = {}
    for label, name, order in _BUILTINS:
        for theta in THETAS:
            cases[f"{label}@{theta}"] = [
                "check", *_gen_args(name, order, "--n"), "--theta", theta,
                "--oracle", "--resolution", "128", "--format", "json",
            ]
    return cases


def kink_node_cases() -> dict[str, list[str]]:
    """Grids with a Gauss node exactly on a kink, where the density is nudged.

    phi5 with n=32 at 80 nodes has nodes at its kinks 15/32 and 17/32; phi1
    at 17 nodes (one panel) has its middle node at the kink 1/2.
    """
    cases = {}
    for label, gen, resolution in (
        ("phi5n32", ["--phi", "phi5", "--n", "32"], "80"),
        ("phi1", ["--phi", "phi1"], "17"),
    ):
        for theta in THETAS:
            cases[f"measures:{label}@{theta}"] = [
                "measures", *gen, "--theta", theta, "--method", "quad",
                "--resolution", resolution, "--format", "json",
            ]
            cases[f"check:{label}@{theta}"] = [
                "check", *gen, "--theta", theta, "--oracle",
                "--resolution", resolution, "--format", "json",
            ]
    return cases


# Expressions that exercise every operator of the evaluator, and the ways a
# validation report can fail.
OPERATOR_EXPRESSIONS = (
    "x*(1-x)*sqrt(x)",  # phi' undefined at the single node x = 0
    "x^2*(1-x)",
    "x*(1-x)*ln(1+x)",
    "0.9*min(x,1-x)",
    "max(0, x*(1-x)-0.1)",
    "x*(1-x)*abs(sin(7*pi*x))/3",
    "x*(1-x)^(2.5)",
    "x*(1-x)*2^x/4",
)
# invalid generators, and forms whose report names an undefined point
EDGE_EXPRESSIONS = (
    "0.7*sin(pi*x)",
    "1.5*x*(1-x)",
    # invalid, but matches x*(1-x)/4 in value and slope at every node of the
    # default grid, so it passes
    "x*(1-x)/4 + 0.0001*(1-cos(8192*pi*x))",
    # phi' undefined at 2049 nodes: derivative_bound is inconclusive
    "0.2*x*(1-x)*(1+0.1*sqrt(max(0,x-0.5))^3)",
    # phi undefined at the node 0.25: the envelope fails with (0.25, inf)
    "x*(1-x)*0.1/(x-0.25)*(x-0.25)",
)


def seeded_expressions() -> list[str]:
    return [gen.source for gen in random_valid_expression_generators(100)]


def validate_cases() -> dict[str, list[str]]:
    cases = {}
    for label, name, order in _BUILTINS:
        cases[label] = ["validate", *_gen_args(name, order, "--n"), "--format", "json"]
    expressions = {f"seeded{i:02d}": text for i, text in enumerate(seeded_expressions())}
    expressions.update(
        (f"op:{text}", text) for text in OPERATOR_EXPRESSIONS + EDGE_EXPRESSIONS
    )
    for key, text in expressions.items():
        cases[key] = ["validate", "--phi-expr", text, "--format", "json"]
    return cases


def check_cases() -> dict[str, list[str]]:
    cases = {}
    for label, name, order in _BUILTINS:
        for theta in ("-1", "-0.5", "0", "0.5", "1"):
            cases[f"{label}@{theta}"] = [
                "check", *_gen_args(name, order, "--n"), "--theta", theta,
                "--format", "json",
            ]
    return cases


SAMPLE_DIGESTS: dict[str, str] = {
    "phi1@-1": "5ef3def8da15316ba30b898fa0dc20aa4b888662afdff28318470a7e41d28b89",
    "phi1@-0.3": "c5d6efae51a9a1be239616297d9e440fcc5d11600fe2e187fdbf5dcd67c29e32",
    "phi1@0.5": "e3bc0f6533421d8bc544bd5b60cacf393f4957bf9f8e0e36e50fab0548c8b73e",
    "phi1@1": "f7ed99b4aecdf725dbc6e41beb638e1d539a93d8dd99a95599f18d20f92f0d68",
    "phi2@-1": "746d533904637ac3590a8ac5087f26480104b3f085be894dcf4b0ffbbf7bec32",
    "phi2@-0.3": "0bb260e2733d36a0b2d7a9aee0c9b207c912c741406936b35bdce2115c0b41ac",
    "phi2@0.5": "fd69ba73853e222cd8a24e059378deffe5a6695c154819b5e5f1b93dc1e4f063",
    "phi2@1": "41a65d22ccf881ec6c1f916dde2a0afbc2f7d1d9c55b32cb3ad698a58a5f2898",
    "phi3@-1": "84cee51ab4261b266b232e200823ae25d11dcc7ea01efb031c15646b6d1e6187",
    "phi3@-0.3": "54803f171a2876b36bd58b09bcfe0cd70f9149eb66b21814b6097bf280c9d6e7",
    "phi3@0.5": "7ad88f187e6d6973c9526feb750ec92e095586629eae663487698c289721ac61",
    "phi3@1": "ecace2afa3ce6586f3d93e27510567edbe7944d32a79dfc88969c5f75853ee80",
    "phi4@-1": "0ecd90034c790f175b9ae4b4d4cc634cf5cd5eadea45d1a3ab747155526362a8",
    "phi4@-0.3": "4bb4647091210117bacbcd2d0c054e57efb1fbd85f619a5a36e8a67d838ce4cb",
    "phi4@0.5": "45579e899e8c9ebfb3ba50433e2656636c7f1c5a0f6e6a10aef17239073b72c5",
    "phi4@1": "b28de0f5fe4ca72d434695bbb3730329da120ea049303c9987c3be6e798c6a41",
    "phi5n1@-1": "a83193f01a29933ea1ddfa100f5c806151886a3c5a32413603e2e10b569eb3b9",
    "phi5n1@-0.3": "b41efdaa52a94d8db4ee1bc3a8f18592dad4d7d578d7b8a8d57a309363163ca1",
    "phi5n1@0.5": "f76785485682fd9fb88ce0ac453b58752be43ae58775dd7c02543f9afac43439",
    "phi5n1@1": "c0384c99a2448faec31771fb0feb6b87c4ca7fc83fed5f1f90a934d936902be1",
    "phi5n3@-1": "111f9f33c8409d53344f8972ed569449daad1f3a89032085e4e84434566d0de9",
    "phi5n3@-0.3": "44c9e3c23e4fa8f64099b30b2a605302b8020e9d2df055ce26b0cb84ccb3ee73",
    "phi5n3@0.5": "28f20e0bca553b9761e91ff74a1b80c47e3c41fca32d2f8c151f40727b150fde",
    "phi5n3@1": "72ccde084db10c1625e084244f163b4ae308a8128ecd7ebf29651d745e5460bf",
    "phi6n2@-1": "c10c41b3c1f5b1e23d1d370f1bb29f06ef3d7c778e38ee6f6237a1b3d7de583a",
    "phi6n2@-0.3": "2c5eaaf24f445d18902f88d4bf257a6da803fcbc931d23528d5422e33e5f8b15",
    "phi6n2@0.5": "c9cd7e65be232f4e77cd80b7203cdf27c9c80c8af0edbd8a6966ef2dc3f514a6",
    "phi6n2@1": "64925a4555fb55a2b6fa924055fc6085aff1cc76097bc2bcaf8c68100badeefa",
    "phi6n5@-1": "7fc4e073e2fe6e02bf9ea9fae3ce23555c3a0440452a48d95952aafa87d26a74",
    "phi6n5@-0.3": "afacd17bef2d66a8348f458cca89298403576f716e5e40467d1787dbafd5b251",
    "phi6n5@0.5": "5ab165add9230e81c13827e806ce7edf6de892d1aa73bf54e950fbe098ecceb4",
    "phi6n5@1": "647a5f31e2712746b7fc18fb7b38ea1b62b5aae88c1d850ae2166fbd14c4233b",
    "sin-template@-1": "1796b74a255c20be3ff8545bc5d718bf70e369721794d23a74593e0e6f2c7f41",
    "sin-template@-0.3": "0156c9cb23ef9e96327e23a2508a9bf88af82ce01a400541acd9b94cf572ae65",
    "sin-template@0.5": "1b2f0bcea78aa0d41671cf01edea1d1d47958ceca5130bb7d1c64fb4f30c4542",
    "sin-template@1": "c932818fc1564ebc591a71346b2cccea34342250a45c6cb0635ea8ce2f358b57",
}

QUADRATURE_DIGESTS: dict[str, str] = {
    "phi1@-1": "2d518d921748ec6fbbdd62bffa6512ee927a3f321d2fae2b17a180d54ee8fd61",
    "phi1@-0.3": "ac2bd0994ef693e0507cc9ab88193cf1fb36bf6460293343966f0e2519a5f0f1",
    "phi1@0.5": "a7d8c4b56e10830af17f1cfb3a9d51565d3b4df93b2ec2c459ae618e1fbc6a4d",
    "phi1@1": "35b47e9ac404a49662458cb43f5be72e12f23c7a74cd352c73d224224e2e5e28",
    "phi2@-1": "c186b704a0b8cdb3d43a7f412942304ff1d5014831f14845099d537931590b49",
    "phi2@-0.3": "313ccf7f1560dfb28bf8f28a2fe4f45c29b6bc13d72b15cf14c25a1cbfe624f4",
    "phi2@0.5": "bc1c6cc7498ef26e4161c4bf1f7620aa8903316586a69cd1d07cad846f6a5bb3",
    "phi2@1": "35d9d7254e1e5e3122fbe2181e6288a3c43f0756fe90a1f44d6a3c44c08475a6",
    "phi3@-1": "f9aea8136e66e4883262552ad0c98730171d74e879f779794f459e55ace53fbd",
    "phi3@-0.3": "d544cc8c05a5ca3dc332fb194d38bc2909ae727f1bd607bff996e0e0669f4160",
    "phi3@0.5": "82c8736b70659d115da1b7739dcbc37de096ca70da7d5b30eab318f610a78254",
    "phi3@1": "81a9dfbe87ba8868f3ea41ff72c5e5c1eff6358b07daa97d89c9d3850f997fff",
    "phi4@-1": "ac4522c4c71651b055e10302fb9e623cdc51c92d175d98a63315407bee7a95e8",
    "phi4@-0.3": "d576ad35c00da18a4b5c0182f5e024189ef06e7408a9f65521c6a09f5121a46b",
    "phi4@0.5": "24c43dc8f1f305869620cf459e86056bdc0fb34213a0ba078f63ca5e0e824043",
    "phi4@1": "1b5c089e6034f697d4404527e512b770add5cab9aba0a30a10ba09b1d708ef44",
    "phi5n1@-1": "20d9b8d4f4c41513b06d4c0acdfaba31fbba7e0bda88da54253f5b3be66fb9b7",
    "phi5n1@-0.3": "483fe454bace6f3b2ffdbbfebcfd5405ea47a5cba6a504ce594c3154c6502d0e",
    "phi5n1@0.5": "63c2442e1459edf4ca8cf3a484c7d735112341634b73c24196bf7aacf384927f",
    "phi5n1@1": "0151378c5c45e8a249b98e77c9e7dca48d7aff785c5add303fc44f8ee37044ca",
    "phi5n3@-1": "06ea5924ab112ece853da67f8127e3a058fe64456d76028e4aa201202ea3c2c4",
    "phi5n3@-0.3": "7c01feb148eaf43001a0787ef85ab4aa497096a7d646d190c9279e908a38bc56",
    "phi5n3@0.5": "14a80528340d601d88fad1cf7d0db15dc99ff0952a6b642376a2bb0e6ae61ee7",
    "phi5n3@1": "52f5d29dfee9aa4254bb560c619bc3d4d34f7baa01118bcd42fe463901707abe",
    "phi6n2@-1": "d67518f43dfd8006e1c7bfde119deedd05862ab7a063988cddfb59cc21862d89",
    "phi6n2@-0.3": "9163a1d60350bdc2ccd771de07d80f8b1940540da96d80c596a84d85194cb5ae",
    "phi6n2@0.5": "48a8f3c0035605a363dae231ec587b320d6211b6214c2b0f2b4a89cd8c26ec34",
    "phi6n2@1": "3e5cbf5e1c14a809b1dd37c747d62ebc8960f9d884a46aff7095a2c97748520b",
    "phi6n5@-1": "fe18b052260f4358e1572998cb67c0fadc7f56e8c2ae7de74f87f0741d98540a",
    "phi6n5@-0.3": "b21768912b4972a2f3f3ad0329d48ca6d23df1641bb9f428e2257869ac3a3667",
    "phi6n5@0.5": "eacd01f4c43dbeabb146857a90b86d405289c5aef0f554b888237f62c782a277",
    "phi6n5@1": "52613f11367d89be00988aff698f161777aabda18e593c9fbfd03e5457d8bc4c",
}

ORACLE_DIGESTS: dict[str, str] = {
    "phi1@-1": "76c6bcccd252ed40a71938c60b63ae5619ffd2e7f40894a806c7061cd8ecbe4c",
    "phi1@-0.3": "4105dce6f50090b0690393963d80191f2c57e8757aa9e9e9a99f4659507e4e15",
    "phi1@0.5": "3cf3fcc5a7c1f93150da10dd123007be7b204bc6c5a8bd421521c8ca3df8b8a8",
    "phi1@1": "17f691d11a1eef3eba230c20fa4909a3f940ba86e39a99892b00595babe60ba2",
    "phi2@-1": "7a45b0c49f26b230fc11ae602ee717b2183c61f632539452f6173772a2046bc0",
    "phi2@-0.3": "1309b07b92b117fd9fdab37825d8afed9dac0d258552cd49874840bbda83e4a7",
    "phi2@0.5": "fc518e5f056d2fa110e0d3628c3ef8e37e35458226417bc38adc688cef5f897d",
    "phi2@1": "381f2775527dccf292e85e4b9fa581b7cc1ebccb6580d1b4f532e1d13d4b2cd0",
    "phi3@-1": "a0f2a3aada9b76144123c319c8d43db6b138190373c9469ec59dc4eca05b8333",
    "phi3@-0.3": "0f38185bb13ab5076577c67689a00a14f7238e5314b01182bddc4461976cd87c",
    "phi3@0.5": "4d860c434b10abd7b9459fbd817b71a137970fc3183d512a4a48a8c870869483",
    "phi3@1": "f97ad4cd669e42623cd714868595780c74220932bb436b5c8806592519476f6c",
    "phi4@-1": "a5c861862bd1678e8185ae09a1fc19d7f0b1815ee22fba18cddb1ecd53fa7bef",
    "phi4@-0.3": "d85699c82367340604b4d709aaf1bed9baba9d8521b8ca6da72832600e1645e3",
    "phi4@0.5": "7ede6c066be6d42e64900bc6d2717f0e11d29d4a15f0995deab4c384b6bb7694",
    "phi4@1": "7ec72c89ec2a4c14af325c918195fc16e9f0d41c3a77f04f75be9454492ec76c",
    "phi5n1@-1": "971a69ffa651b3a4e822078fe426691dae122ec4b5e005b00e70ff7a70174f9f",
    "phi5n1@-0.3": "ba9776b4011c959c2169e8461a759d194b1c31ccfb35263b87a0bb1efd393ed6",
    "phi5n1@0.5": "92aa6577b483b38b353f79f37ecbe9769cfdc6d94ba07a37d125aac3f4691007",
    "phi5n1@1": "0f3d45fc874fd2ff187613c0f1798523e586d35dd71391fe277697ba61dba484",
    "phi5n3@-1": "0d8e5655c03ae9181bc2f365704d859f1f7f54c33ad11ba318bc3c67d499e19b",
    "phi5n3@-0.3": "420d48adc65205c3f3f4f00eecd02bce9ee33cb37c17a97f0f5f63b544ab23cc",
    "phi5n3@0.5": "e28faf2f30558b1b255fa3647bbb9f083c38efa896767c7035a24264f1ee19ac",
    "phi5n3@1": "cd5c28702767c80b6ec5e3e452fc52a989cba5d6f5000b558b91d1d4f1223c6d",
    "phi6n2@-1": "1f6727f2134ee8ceeb07ed5c9ff6c9b719666e768c4a0d1264563f393d4b6b90",
    "phi6n2@-0.3": "7526c2a8a16f0ee0e03484ccf79b572212e8ead9ed09df0985a72d49fd40fcec",
    "phi6n2@0.5": "87496f744c6cc5dfd75dc1337e1c1905ce0d5df4f7d2b836904bfce708521de1",
    "phi6n2@1": "093e9316cd469955da98abe40e663c6d9ac3fdc3a203e420265462ed4cf72bda",
    "phi6n5@-1": "2fe7fe473c9e3df9867b8c01f6f42a2a15cb060c44c971acbc5d5e631784ed8b",
    "phi6n5@-0.3": "1dc48cb034414562f013ffc4d71d2c9e7d86f7b069611ed98b93ae0f273eab47",
    "phi6n5@0.5": "e61539afb0b8c324f70b167786d6ba67e3270332e8870fb905128a64be6d7ebc",
    "phi6n5@1": "e50baceee3236906722c9e6bb840ae06ab3b8b315763f136a77934ea4cf02ddd",
}

KINK_NODE_DIGESTS: dict[str, str] = {
    "measures:phi5n32@-1": "9a904aaa6e5216c7b500c2973e87d6bdc0bdbe5a78878e31520f30afb6f9674e",
    "check:phi5n32@-1": "187b9b9f9c6b108802f947e2fde1480888fbc4d583ac766a8ac480ca8941beee",
    "measures:phi5n32@-0.3": "b4de7ae0f1a83634223921a0c8aed1573d8eeaf4b62f4df4a26b72e2fe3ab718",
    "check:phi5n32@-0.3": "5159f24ef7f3303b58470a4c577d9959fe05c74d3bd8a8b88253a55e18920036",
    "measures:phi5n32@0.5": "a89f9c95a27828229c0ba3986278f8f2ec62fcddf541b0a28079f537ddd27a2a",
    "check:phi5n32@0.5": "5acfa0c747183f083154da4008fffdebe65bb688a4bd9bf46cbdb0f8eaf4d1c1",
    "measures:phi5n32@1": "ac59c04d1b814e074bc660ad68e6792da106e51d4be98c08391c5521ef931cf1",
    "check:phi5n32@1": "5cfadcac32b4cf77d970a79e57774a8c993a440933c0d47f118768b599e27904",
    "measures:phi1@-1": "8105263b06a55331ee3385400dd81334c84bd5d3bcc24443194202f687a707d6",
    "check:phi1@-1": "020d7131c98fec11ea4f1945517404a486014ae00e3119db491ea086df12031b",
    "measures:phi1@-0.3": "a2dba0539836758d00ee7c33d3df701ab00c0cf33dbf4cefaabb8d260095bc66",
    "check:phi1@-0.3": "72a782428fe6054d9ee36c084f162607ad05645dee3de619c20ef9e46a5b2a0c",
    "measures:phi1@0.5": "490e5ecd649d83be5c9454afa513f93164a61fb98f862f14228bd4cf047cb387",
    "check:phi1@0.5": "e0bd5388460b525f83dfb2d19c21f6b2a527bd7d99e4677ce74d2abd36967c4f",
    "measures:phi1@1": "75f8f9da07b00782440a4129bd54a7a757bb4c0c9e606428fff9c197db69ff78",
    "check:phi1@1": "a4d0c8aefc5fbf4ae8ec2d981bcc82979f40043b5e6b98c5970462df10fbd0ce",
}

VALIDATE_DIGESTS: dict[str, str] = {
    "phi1": "b408771b83ec976d41fca90b9320a0b68bafe516d0fa68f04eeca47fee74546e",
    "phi2": "9cd2e169ccb6a9e343df56287294764d9119938058f419536962ed22d0104ce2",
    "phi3": "bcb2565ac2bbfac822c4a62970364b1e9b145977bba8e8ba20ff308a9bb5a2b8",
    "phi4": "9ce3e07b6e8eaf242f8d610d264fcdc62b6a548a4a2de250e0b7a888c99a8f30",
    "phi5n1": "63148341155f0eadf22b0ae418b7b71aac3f219b46e7a2d368fe67c2eed54501",
    "phi5n3": "f3036f1fa83346ef3bc3579d76f0dc08e4797376ce83260b0bfcd045072bc269",
    "phi6n2": "5f9554cd3e178fc71b2a4290083e503099d5e1fa8a6e6a8492a9895fa230bb50",
    "phi6n5": "98dd4e15a90e524ebc43ca18baec298ca7b01d4dc9929a3a2bcc092804459b56",
    "seeded00": "1fe5662ee65bdaeb1b1c39b7c4020edde0eff97b34940ce2d9e2fd2e1791b451",
    "seeded01": "6b9138cbfd2d4461855c9f6e8844e58cfd7544c095d6673c950db6131aa28612",
    "seeded02": "6b17c110c59787532b485c71f53440f889f86f3548c4828b1ec9bb7877eb0a4e",
    "seeded03": "9863bdd71207d9a840e9f8cd5f74ef7540965a74abce12da68dcc50f005d2e8d",
    "seeded04": "aaaebc8d812b0c2afe71f7e140e8868d263f557811fea7bde7ae36f321f1e028",
    "seeded05": "6920971c91311a9afbf07f69e74ee6e6d9572d2742cf43bf49162ae00f2fa5c7",
    "seeded06": "05d70fca17433567316fc9224355eba15ea8668914a19b805161f8ee3290c59e",
    "seeded07": "ddbf8e5308a4953725a55822be559e4c320a7c531f74f162aaf00ee8e0e97849",
    "seeded08": "3a12f52bdfab01be2d802e6028581b4020de7a41bdbb2259e055560ae638721c",
    "seeded09": "22e1c0bcaf3b5210c3e1fb3407a4d8ea4ccfcaba70c905f0810c4dd575120cad",
    "seeded10": "69d99a495f58898bc46d958980a5e419540b23e3d973aa53249934b9682d3423",
    "seeded11": "fb173946a68303c182e3c0fa38a1a9272301d41e2c72460ccb8755fa29873076",
    "seeded12": "0a5a2e0ce13dab8ab0cd1ba9096e5c0932cae38251864deffbe5680d03f13cb0",
    "seeded13": "4f22ff3980ad1985f45068bd8fc3367831a5341ff96b606145d8fd03848cd40d",
    "seeded14": "76217e4a06ad8ad3fc15725e14c4c603ff39d0c5265a8bb40718a6a9cc05cc3f",
    "seeded15": "8b97030e00b155bb690f9b3d006ea58642698dc6317dc4dcdda320abfd2b1e51",
    "seeded16": "48c71ff7b1368d7190079949dafbf77ea462f7a580be10a3d963a1e41edbd798",
    "seeded17": "bfaedb46ea44240c26c277ed8de796731ef2977f43c617929278ec5bf876038c",
    "seeded18": "7a7319e34713f64110da6f32a365a8caf2068b9348f36ab8d358181320b74de3",
    "seeded19": "fbf2ffe0254070eb510423e027765ce5db5f59b42cf66fd33122097c9e09f7cf",
    "seeded20": "255c62c4386970753aed8659dfeb8ce087e1d7c7a7ccd975d8230bb9131621bf",
    "seeded21": "72371ba8afec2dce272e15c298868ae2caf2fd5b1cd9a82d4ea02e1d9987109e",
    "seeded22": "edf0cdbb7da2233eb5fdd882437297894b59f37497b3595c5bc1b43f51473533",
    "seeded23": "bf4ebed61c0f46da037d72bdc63603596e2a63d3748f05a62c1f8257974ed3ad",
    "seeded24": "98c3de228d6aebc64f4aa427fc3aff20e2d146205bedf20cbd9f045ba48607c0",
    "seeded25": "e1fcf859dfd29aceb3d3eac5b8f38dd7c02252c795045b2497119dbb891ee6e8",
    "seeded26": "e0eaf4c68918f3ce18d2de51fca2849cc3c9112278a6e069b3ec01478995ff45",
    "seeded27": "b98fab8a0f18f86178dabeb2b36af31fab68f40556c3eb58ec210a6855e1ee69",
    "seeded28": "5ed17bef2885c7e240abfee32497c7aedcf361944963204fa015b98a9f26aaf9",
    "seeded29": "1953472852fc8990f98e9f32c11c80c0aa2d2fa4926fcdb0804c05351a4dc903",
    "seeded30": "2e8459a5bda355912d0b49bdd91d5db46442211284522738fcce84c40b2068ea",
    "seeded31": "c1705f750d98c7d8a08ce2860dbe922cace8442803aa65dc606f9baf22c42d4d",
    "seeded32": "06abb228b1a19917a4e02a2aa6d18c51c6fd1773d1d15850595d40de52df627c",
    "seeded33": "8697236b271b28c5230ba642bfccfb42a7086254741fce8a08916d635ade552d",
    "seeded34": "d86440ac004744465c07bffeb164d5d111e767b0cb169d825828f06f60bd2d30",
    "seeded35": "3a270c79e3b473ad6c39e10fa1f4b906ba8f52760be195e1f82f69346068296f",
    "seeded36": "ac98ba04844e7fa7212521887a19c10b911b37f3c15f12281e8571fc6322a636",
    "seeded37": "4c6d7b5add0c21cdde8232da3c29cfb9e23e7c87fc996a087228da35ebc90b0c",
    "seeded38": "60054e7722d5e9e1cd15bc82c82220c62c46e75a0ab4a8f533d773135d0a9973",
    "seeded39": "1c2098a48707be8984e2e1b984812b7224892bcbd8c8dbd82c192c744a550b64",
    "seeded40": "52524d50612f0306ab52367e0f6be07161fea30cde822c8b676c48e8af8cc5a2",
    "seeded41": "a2c5e398249bf1146a380e75654d47296c0da15f3ce8e554b998a64f118645bf",
    "seeded42": "3058a6b18d11b5ac7a611a2c26dde604ff8277b442a1a2b556cb6e0643e4db26",
    "seeded43": "07c06c2a9b57f8d0699543f6115eed8e324679df69da69574c7aee95fae8682d",
    "seeded44": "dd97e605fb37d6826f646f095ced237013b8118b8eab9ceb8d916caa7f45fcf1",
    "seeded45": "8a5dd30bf132c45d94499720fafcbd2c0c57ef2f8743048504e70aa9d14b7007",
    "seeded46": "7bef90801366216e6e915110c99ded69cd101cbf6da60a9b378f733e1d8baad1",
    "seeded47": "1e93fd1b7d878139c5e65b395956e12ab68e32184968b3d0a353e4468f04bf2f",
    "seeded48": "46f9a3eb47cb8464f27e5685ea0142ff6c7f6df0dc42d90954a88d85a99d51f1",
    "seeded49": "c11b684453458eb397743f0b5f468aff79d8c5cb2f5979b6a01d680721d24a59",
    "seeded50": "cc00b85d3ab1a2a19a36586202125626719cef8ef5164a407229e1c83339f433",
    "seeded51": "ae53d1860b9bb8870a77a5343450654f10a5fadc8504f28aca93d6fab545d8ab",
    "seeded52": "5a65e41e149bf792c5d5cbfe20712c93350f709098a49313848f14a84bbda21f",
    "seeded53": "0f46ebcb4da444a97aeeb2345614f68f7ad62eaf9f487b8db2f99561c025896e",
    "seeded54": "cc02cdf524396785932f94643d36d0be32a8d380225561e9524097b8d2fbec51",
    "seeded55": "05824f1fbe7037d76d4dfe9a569c378ae297c93559ba7f6cf9b5bbe9a3d31afe",
    "seeded56": "33ce26a1751e827355172a18210fe4ac7292ad6f69f0f30af22a8ffc7dbe42cb",
    "seeded57": "4ddcb17d3047fbbdebf8529f1d8606f17a38e6488fbd44914ba77ef23fd4b2b6",
    "seeded58": "5973c3805ff4b204f38298ed545e37ded933dd2fb7e1fb524318003d8067800f",
    "seeded59": "b2babd0c79753a69176824cb6dcc53847bab92b554204fd02804cf30967cfc3c",
    "seeded60": "015abde4ac11ff848ec4e7654d5181f2695a70348fd3733ffe3bcf216640a442",
    "seeded61": "ea4590a38fd5566bb315818714273f6217f6181e92de5936cefaddeb585e457a",
    "seeded62": "e4554e5772dbfbc435f87e1a805145b9d73f9fca21e38a930ecd8c7dd8c6b1b4",
    "seeded63": "fe60c33a5ead02e3de17ff600f1ce82fb7130f74b7650b4e1777658184e3d7c1",
    "seeded64": "d49a5b5068c261bd20128985ab7172e06572578bd020f73b5467a6b5777031c6",
    "seeded65": "1be56baf39b2caeec36425e481dc9305b3b97be3488ca85bcf98ae4dfa1d0fb7",
    "seeded66": "2f7e0d2b262ecc2d4a0388a72694a5f427676744c11bf3369c34f4016a14c934",
    "seeded67": "b8540a6fa157518a77b339566acadba0f0d61ecf6951816dbdff551d84975492",
    "seeded68": "fb3b64307ecb55973939520727dc05545b8a831e520a25c751bf2a752acecce1",
    "seeded69": "bb51f354ab32135a5ff5d9e2f6f842ea0b150b08719ed8fe3f67bad4d33005da",
    "seeded70": "a555dcd0e3b272690ad27e7ee50a662e5c4fec593b69e21a3a13611757e3776a",
    "seeded71": "68e33b175c77d8bb882c39c30caed18fe3b1145ebbe9e00bf0aa2967deba675b",
    "seeded72": "95ced9c685e2ad3fe4a01566d79f3d4b4c410ebcab953b8ecbb6fabd00454968",
    "seeded73": "de574d8329434b922f4f605d68c6493f7dde2a384ab25ffb55a8d003f03c9b44",
    "seeded74": "a9200dc54bd2f3de101e5d0a402be9d41d3c1c064cbc332dec97e3a22da5d36e",
    "seeded75": "c3effafc35519c7530fa97d2a24d1869a10c4d256f487b875ecf01c0053e9611",
    "seeded76": "35498d75ec250d34abeee018a0282966b3c91da80576c70c1057b1f23bfe8a61",
    "seeded77": "ae5091251a5d7e20d16b2bb8105cfc9a79c1d2a11c5065351e19ab77341f1b20",
    "seeded78": "7fc1f72f5b4db6a159dadbb8a1a6c814bb7c1fab9ca53080b6c46e5e894f977a",
    "seeded79": "d88dcbd0d1430de3c813ea6a848cf27de9beca7c0cc763d9238babec9474a0c9",
    "seeded80": "8063c3c20bb7d12e314c021de2c96e4b4747284a14ac6a9d7d246d7a3d31a666",
    "seeded81": "df50169f918c1ff39d211268f2de0a7d005ac1bf169b37acafe4e8df51277966",
    "seeded82": "b06cd81dfbec0fca81aefe1bd68b703dcc82767fc3fc6199dfccb4a0cb291bcf",
    "seeded83": "33f29ed1e28205b86984b97502df2df2d9fc5ca09908c1ad48842aee8a89f6fe",
    "seeded84": "470fcb59196f3a7222d3a4717536ba8b6192a05258329bbfac755a19745ec87f",
    "seeded85": "eec54673469f7676eea09b0f7bcfaa6f624932202f5e40f81bfa6c096b880b27",
    "seeded86": "1878e969958e7d929a6959adf3e64ecb151452ca421e9de09c872d4a76451ce5",
    "seeded87": "28c02c6094d1e7d41da32a5f51fa1a41de1f0ce2a94c5a841edc69cd88406b7a",
    "seeded88": "34b3236897b1b28baa3c322dab2f3817d6292389087da0e95b88832747e85cf0",
    "seeded89": "c1a3f99ed374806238027fd36aaab51bfd3575da3d634d35afc3de89ed0a6773",
    "seeded90": "80e306956129eb9849757334434a6ceaf174a60c4e3a9661197f3f81f927b953",
    "seeded91": "dfda72b9206d2b9871337175ad3c79bb32c40137926a53fbface7b0ca1bf38af",
    "seeded92": "306597a2b019cfc399f4a01bf398ad6d66afc9c248fcd229262c53224e46a737",
    "seeded93": "9f8dbb93983523eec6fc65a5d753d152ab482e1a4bec21a1b40b8e64c5cbf438",
    "seeded94": "00b42b4afb25bcaa6cb288eac5148710043262177a5d13777ff8eac3c7db7420",
    "seeded95": "487bac76acecee1aaf02f30c17010a567acd84a503c0ae1a395b4ad881758c0a",
    "seeded96": "073193c44b829b55160d83d5b67aefff54ed9d4e5f8d2a3e4326cbadfea79696",
    "seeded97": "5958989aca6c7cd631acba566b6fec035d9e833251c306e5ea8d94be64f771b8",
    "seeded98": "9fafffbd424a98fc76b3dba032760f0660d03ace1dfc65bd11e4c76e854ef315",
    "seeded99": "449af55cb62adc175f10db98e2e1faf3b5d42df97ba642a9d589dc225424efe7",
    "op:x*(1-x)*sqrt(x)": "6092540b137971905aab884b3a9b91cad499678113b6c6983b994e5a0ac20965",
    "op:x^2*(1-x)": "4859887029e532ee9e4593b92d6adc636df14bfa49d74fceecea1f43a7a20e8c",
    "op:x*(1-x)*ln(1+x)": "8f7a623d32fb8dbe665550b9247ba06fad4c407ce9e4a3cbffd5a79a448cf1b4",
    "op:0.9*min(x,1-x)": "865eaf7bf3cdc6a857b92ffd3dd5e99a00a7bd5ccff51c33b157d27ab21853ac",
    "op:max(0, x*(1-x)-0.1)": "bcbfb77b48ab6c6c2a84301db0f49baddbcd93b9f33610ea0660038c33d79d7f",
    "op:x*(1-x)*abs(sin(7*pi*x))/3": "850cfce779eee9f849b13749a9361c71f1ca9a2246f36fc6035a40799cd09fbd",
    "op:x*(1-x)^(2.5)": "c5733f9b1984aca783961613f69af9dc4a9fdae53fdbd56182d90bbde10b6545",
    "op:x*(1-x)*2^x/4": "e94d4e8453d18632a17a42bdffa9ada25b4cf4031b21819a656e2dc8953ab7eb",
    "op:0.7*sin(pi*x)": "1a5d20a0fc2b3a9c10c672a50dae148e8ef6ee8c1fc3d46204fe5a683e516092",
    "op:1.5*x*(1-x)": "11ce9e5b3c3c603187222d5d7d8374d81cc892a8d9926bec980dee4e740b9a37",
    "op:x*(1-x)/4 + 0.0001*(1-cos(8192*pi*x))": "a0405326c464d4182f683ee4e4fa7f086dd7e179c0ce6a1169bab2bbb55c7286",
    "op:0.2*x*(1-x)*(1+0.1*sqrt(max(0,x-0.5))^3)": "005b416424640441f27560344991d9f65c2c01a3ca104e245105ab70fdb2c7a8",
    "op:x*(1-x)*0.1/(x-0.25)*(x-0.25)": "ee9c955b90ac2734edf94ea1c3ee2e8fe865fce5334379ad8ab2c9627fc078d4",
}

CHECK_DIGESTS: dict[str, str] = {
    "phi1@-1": "ecd21223247815ce8cd456122b4f6d2065048612920911f84731e5b0b259d9a6",
    "phi1@-0.5": "6ae2e5b982fccc49914c1bc168ef5aa3d404deb9898936a9b3e4951015b3778e",
    "phi1@0": "35759c38cf4192518a6b7af95647be5fed40d25aa834bb7a0061a448a3c06f02",
    "phi1@0.5": "259831ba6ad1391e62d82268af8184d1a6292d9f27e7e3dcc6e329d32eb61a7a",
    "phi1@1": "47044bf45e1382d6465c357d25502113869d3d77872397bb2d670ba827edbc7f",
    "phi2@-1": "ce2b46f18331d2e106e86093796160773d9ac77e9b299c710a66f3209381dac1",
    "phi2@-0.5": "89dd1c4685ce2cfd3d71068c9c3ff98a0e78aacaff088de5d4985521a723a3c8",
    "phi2@0": "e1588e9327bf47511911a6e0de796f1d5772e89e07c2b338cdeb0caf6e420978",
    "phi2@0.5": "6f2464648ada2f32a0e37e45d1844914ab98c2f04a03a0a8cdd4dbf37b11b7a3",
    "phi2@1": "5ba488cc0e70add4ee67e65b3b3b25bf83fe165dc01ff85c97394105ae56a63a",
    "phi3@-1": "10f8a8b5ce11185f756f78ab83498c81552c95e10fbc28dc239c547a5315db1d",
    "phi3@-0.5": "a147c1f19df051c727f3c4c6edfa7919936ba85defb47cd339fb70818a4adc6d",
    "phi3@0": "b6416d2c75704fe300c549d2914c590130342750a760a207e9d67a3b39b9c456",
    "phi3@0.5": "fdd0791a0926c2aeec4f63a4334c9c2f0610e0d6bf03953e662af6d8ee6479a6",
    "phi3@1": "5b9124abd01d4a9a61a7e3c3b981fb1ebf99fef71678b518077cdc1ad7eadbb3",
    "phi4@-1": "bab01703aa2a9584996e5694a2b13c1ea0ce9b59a7def7c22f174dea9ea8cb9d",
    "phi4@-0.5": "ba0792d05a0481d3e7a988074b921a966dd788c74afdf1b059dab24f4ece1d34",
    "phi4@0": "7d36b5fe9d4c3b129aba4a861ce3b88033424d3a8fba61ad73f10ba2d25fcaf1",
    "phi4@0.5": "a5924f9a5c011e2932355e8f551ebe35a7c3cd3d26cdd5a2a18d18f94a18e90f",
    "phi4@1": "ae3c44aa2a749a7dc04b7bac3c7b284e0790699d84f615ff80b8150002eecf73",
    "phi5n1@-1": "9e2ef5c1b521834e0127a223ef43d2c5e818461f1866c7bde04dffdcda06e91b",
    "phi5n1@-0.5": "0c588ad94432494fef5991eebd7c31b2094f97a62ecff36e01d4ff861b84afbc",
    "phi5n1@0": "70c32e59d61def4243da8ea5c198bbc6b7404194f3d6f35803d362f5793b3016",
    "phi5n1@0.5": "b6eec8932fa500d7ba52aaeb36a340eb5637d91a952c437c3a901d44bc92bfe8",
    "phi5n1@1": "86838b3b606087c474c97d72e60b72b5c8c62dea660efa159145de20d552e052",
    "phi5n3@-1": "0ed47cb35ad95cd8f3cf77c461b91e5fdcaf11513d9cea1cd94293723d3b2185",
    "phi5n3@-0.5": "1996f256a49e685e4f480cc9bb9bda02cd12da780f7eea9462f5deba3a530fcd",
    "phi5n3@0": "34bf38cdd7ec45adcad7074650beddc3a8ce5079a30404ee25581caef0ddb1df",
    "phi5n3@0.5": "255663cfc83c8530a89329d65cafde631410386b873a609ad8d6cedfbf8edf53",
    "phi5n3@1": "6dd6405963b7648c1922f75c8ec8476a8b24ff0ebc2161b384321c463987c90b",
    "phi6n2@-1": "06d25ff73c6713e8efe68d7796ee8c285d942e0fa275d3eb4f7e17ddc43ab467",
    "phi6n2@-0.5": "83ae6fb041a3b417825f7ed4143631b7c30082bd5f47340838afe3aa888766e1",
    "phi6n2@0": "f38480ddf25f1865e734e565e6984f90f03072d7ba5643594c8a7a5c61f31835",
    "phi6n2@0.5": "2fbaedb2c7f7bbdd6ff8c17ff8f7f729f6ff22d984d763c02f12f36c6fdb55d3",
    "phi6n2@1": "b0426ce80ec188a20c9182217e0472e60d617bcd6fc794e6d474144e9f54b602",
    "phi6n5@-1": "19217a793c673e69188e81b9d0d51d156511d1286a9521245f36b8b667290450",
    "phi6n5@-0.5": "56aa67338fee5c8860d0d9609e33148829afda104ebd9949fecd6c86bbc4f25b",
    "phi6n5@0": "18748131cf5652b6f3fbea6aabc6b948e3037067a2a3581952dd38178fdf9c13",
    "phi6n5@0.5": "f798bd38a11f9a582452b021f4138e18f062a07b77771e7b541e2a460cb71be3",
    "phi6n5@1": "3b96effb0e0382b4f5767673346462336dcb5d9fd6cdeab392537f4f6cffcb78",
}


def test_sample_csv_digests():
    assert _mismatches(sample_cases(), SAMPLE_DIGESTS) == []


def test_quadrature_json_digests():
    assert _mismatches(quadrature_cases(), QUADRATURE_DIGESTS) == []


def test_oracle_json_digests():
    assert _mismatches(oracle_cases(), ORACLE_DIGESTS) == []


def test_kink_node_digests():
    assert _mismatches(kink_node_cases(), KINK_NODE_DIGESTS) == []


def test_validate_json_digests():
    assert _mismatches(validate_cases(), VALIDATE_DIGESTS, codes=(0, 1)) == []


def test_check_json_digests():
    assert _mismatches(check_cases(), CHECK_DIGESTS) == []


def test_evaluate_array_matches_evaluate_on_the_validated_expressions():
    grid = np.arange(4097) * (1.0 / 4096)
    grid[-1] = 1.0
    xs = np.concatenate([grid, np.random.default_rng(8).uniform(0.0, 1.0, 500)])
    bad = []
    for text in seeded_expressions() + list(OPERATOR_EXPRESSIONS + EDGE_EXPRESSIONS):
        tree = parse(text)
        for label, t in (("phi", tree), ("phi'", differentiate(tree))):
            got = evaluate_array(t, xs)
            for x, value in zip(xs.tolist(), got.tolist()):
                try:
                    want = evaluate(t, x)
                except EvaluationDomainError:
                    want = math.nan
                same = (
                    math.isnan(want)
                    if math.isnan(value)
                    else value.hex() == want.hex()
                )
                if not same:
                    bad.append(f"{label} of {text} at {x!r}: {value!r} != {want!r}")
                    break
    assert bad == []
