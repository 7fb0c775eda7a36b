"""Byte-identity of CLI output on a fixed corpus.

Every series command runs on p2, f2 and chain3, in text and in JSON, at
small orders.  The SHA-256 of each stdout was recorded before the exact
kernels switched from all-``Fraction`` to ``int``-first arithmetic, so any
change to a printed coefficient, term order or number format shows up here
as a hash mismatch.
"""

import hashlib

import pytest

from toricmirror.cli import main

# fan -> (order, ray used by single-ray commands, second ray for gij)
FANS = {"p2": ("4", "1", "2"), "f2": ("8", "1", "2"), "chain3": ("4", "2", "3")}

EXPECTED = {
    ("p2", "g", "text"):
        "4d8070d0921d73b372e5f0d2c5676ddf68abe7257691138ee1451f5913492782",
    ("p2", "g", "json"):
        "bf457ec80071575ecd178929b1519ff5f76cb7e22015c3efe56a999abf1499ec",
    ("p2", "gij", "text"):
        "6de04772c294d8a5c06cc70ef4b5bb54541cf9664390c46d74aa2f45a795693a",
    ("p2", "gij", "json"):
        "2f5032dcad219a914d3bc144b100c4de631c04145094e7f66ecdbaa32e17e496",
    ("p2", "delta", "text"):
        "b2baf5769d9ee570976856b2988c9facfba68d6d3bc79e4b40925c2e56abe4e7",
    ("p2", "delta", "json"):
        "a151778b48f0af7de89f5bb2a0a32914c553765902e56ff0781232eb6c7326c8",
    ("p2", "gw", "text"):
        "c9c0b3477db0395aa6d39111a8f3908519fd0b18fbf2dee597be00d0cd999745",
    ("p2", "gw", "json"):
        "6eb6fb8ac2b9070f1c4529b11c233941fb6106ce98cc6ec4c278a22ac7149ca4",
    ("p2", "potential", "text"):
        "5419bbcce12de09df51ceff120918d227b569ae32e366f243d6680f99f9ad946",
    ("p2", "potential", "json"):
        "870543383b83655bcb1427cd83e88c914debbc93054f9f6887c9ac8f8f19f810",
    ("p2", "hori-vafa", "text"):
        "5419bbcce12de09df51ceff120918d227b569ae32e366f243d6680f99f9ad946",
    ("p2", "hori-vafa", "json"):
        "90f5a6bcca13a7a573693d058261cd0e7a444671d059e3b9c2cd14e2fe4b2fcf",
    ("p2", "batyrev", "text"):
        "9cb9346a1606fcdbcce36e33e528b31bb93690418bdca2ebbb9f7d1e1cc06536",
    ("p2", "batyrev", "json"):
        "640df7122768c72c9bc6c4b2f49c9da5bd0faf36a744add1167fed4c4b3639ea",
    ("p2", "seidel-element", "text"):
        "9cb9346a1606fcdbcce36e33e528b31bb93690418bdca2ebbb9f7d1e1cc06536",
    ("p2", "seidel-element", "json"):
        "aa36c9b567ba264375cf9291c420c6edf1b8571f177ff82878c82fc42b53e22b",
    ("f2", "g", "text"):
        "15c4c9eb991b281c2d322c069b8f2252dffbc222c49ff3132928a4aec6e33c4b",
    ("f2", "g", "json"):
        "8f05d7d60f3cb7910dd7901023b9106ec0a9480e792c2f13049b0dd0f4f28ec5",
    ("f2", "gij", "text"):
        "b85d8fa2ae131fe11917882c3817bb50777cdb482e58ef72f81af1fd78d8524d",
    ("f2", "gij", "json"):
        "ee63a665b55f7ef0db8db6976a485f1cfcb0166a2c248c9956d044ae8fd4e9c4",
    ("f2", "delta", "text"):
        "8986f3f6446992689c6d202ea5fb83eccf7c60b38b33aa99898cf24f914963ae",
    ("f2", "delta", "json"):
        "79ea13f1478b79ea1b20dffa7bf0da43212506085f3f02f7b5d977dd420526a9",
    ("f2", "gw", "text"):
        "ab99c260b1e23080e051f21209b95fd8e57b8d1a64305a11bfbd4c2a76e007c8",
    ("f2", "gw", "json"):
        "f81730762f9c712a2ccce08293743e62f46907eff865eccc2e6255de5d121620",
    ("f2", "potential", "text"):
        "6889fddcadb77c1769b46983bc7a05d2140e9846233b5e881e3af53487cf4c02",
    ("f2", "potential", "json"):
        "0d6e75b2aba0da1ac63796fb8299e53e706627c2589a8c42666b01a0bf0d38cd",
    ("f2", "hori-vafa", "text"):
        "6889fddcadb77c1769b46983bc7a05d2140e9846233b5e881e3af53487cf4c02",
    ("f2", "hori-vafa", "json"):
        "2b60dffa0bc1fb0041d494ff7c5f4f9a97442e8ef6627dfa2ae3040c496617db",
    ("f2", "batyrev", "text"):
        "24888bd4f44bd89126f0396dca82c5a3049cec9368d296c7dd1e478f4c2b98fb",
    ("f2", "batyrev", "json"):
        "2736dc0baef0d4318412b99c389d2e85ebf32faa7c32d2c3062477fc8491278e",
    ("f2", "seidel-element", "text"):
        "a15082074d60c324adc5a44ff4c80c2944739228dabc9ab94bb70a85ffcbfc5a",
    ("f2", "seidel-element", "json"):
        "ec28a8d35d550fbb62ea0ffe72ba3a6bbf98f27b344bdcd298b6d7f616d0a42f",
    ("chain3", "g", "text"):
        "d780b99942994b573d6df72764d36fe82075ab3ccb48498aee92ca68d0d6e2e2",
    ("chain3", "g", "json"):
        "c4121ba4e260cb37ca3643f55e172cb08ef41a2cdb5e0be6b02d2f201ae40fad",
    ("chain3", "gij", "text"):
        "4a6c99961472add63ba1f0994048b6b2ea299847eb26854553a74380eba2bed6",
    ("chain3", "gij", "json"):
        "3aa40deb57c98901b223ccbc21d12cc33f61fe4eeebe90d42818bb30aaa74d88",
    ("chain3", "delta", "text"):
        "6fca07bce55b396e0d765e9b50b2facf860021040ba366b1201fd5a02a89b661",
    ("chain3", "delta", "json"):
        "bc79186fe2928a4c52a98bf8ddca50bce73d6928e624cc02c5669149e86d0f91",
    ("chain3", "gw", "text"):
        "66742df6341b4693b4612687eb14bfe6cad55d6411642009ab9d03388a249f4e",
    ("chain3", "gw", "json"):
        "9918ac4191a5e764bc80342b725824a28068cb6d5f6bce290e1108263f2c97c6",
    ("chain3", "potential", "text"):
        "922d875950b973ea5ae7dfbc1ed672d7de412baaf063e93a3a0a6f2bdddd6353",
    ("chain3", "potential", "json"):
        "264f244e6fc366d25ad681be88c10dd605bc7cb4e9cf9001f23261929dad2acc",
    ("chain3", "hori-vafa", "text"):
        "922d875950b973ea5ae7dfbc1ed672d7de412baaf063e93a3a0a6f2bdddd6353",
    ("chain3", "hori-vafa", "json"):
        "3f3f93d2e2b052b931375eedf70ecf0374ac12da8de6d3320914a24eda000396",
    ("chain3", "batyrev", "text"):
        "7bdac02f16b3d1c77bc914c7ca036471bd2887f4b5839058c84316d79bd98efe",
    ("chain3", "batyrev", "json"):
        "b6d2f94e10b418f30bc105ec8bbc9b2b93c18285fd2bbb9c28cfea0f463c3417",
    ("chain3", "seidel-element", "text"):
        "4b984d4f1b5c83dd52efd4ce097914fee8caa04ff56c965a96388d38e8499b39",
    ("chain3", "seidel-element", "json"):
        "12900981bf31dc283c1a88f582f2ab04bbfd0ba79c90e8b07b36a7ac141634d4",
}


def argv(fan, command, fmt):
    order, ray, other = FANS[fan]
    args = [command, "--fan", fan, "--order", order, "--format", fmt]
    if command == "gij":
        args += ["--i", ray, "--j", other]
    elif command == "hori-vafa":
        args += ["--form", "tilde"]
    elif command != "potential":
        args += ["--ray", ray]
    return args


@pytest.mark.parametrize("key", sorted(EXPECTED), ids="-".join)
def test_stdout_hash(capsys, key):
    code = main(argv(*key))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPECTED[key]
