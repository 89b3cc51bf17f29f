"""Golden output digests: the exact stdout bytes of the CLI, pinned.

Every digest below is the SHA-256 of one command's stdout, taken before
grid evaluation moved from one generator call per grid cell to one per grid
node.  A digest that moves means the code is wrong: ``sample`` promises the
same bytes for the same (generator, theta, n, seed), and the quadrature and
oracle outputs are promised bit-identical to the per-cell evaluation.
Never update a digest to make a test pass.

Commands run in process through ``copula_forge.cli.main``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from copula_forge.cli import main

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


def _digest(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def _mismatches(cases: dict[str, list[str]], golden: dict[str, str]) -> list[str]:
    assert set(cases) == set(golden)
    return [
        f"{key}: {' '.join(argv)}"
        for key, argv in cases.items()
        if _digest(argv) != golden[key]
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


def test_sample_csv_digests():
    assert _mismatches(sample_cases(), SAMPLE_DIGESTS) == []


def test_quadrature_json_digests():
    assert _mismatches(quadrature_cases(), QUADRATURE_DIGESTS) == []


def test_oracle_json_digests():
    assert _mismatches(oracle_cases(), ORACLE_DIGESTS) == []


def test_kink_node_digests():
    assert _mismatches(kink_node_cases(), KINK_NODE_DIGESTS) == []
