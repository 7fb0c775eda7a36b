"""Byte-identity of CLI output on a fixed corpus.

Every series command runs on p2, f2 and chain3, in text and in JSON, at
small orders.  The SHA-256 of each stdout was recorded before the exact
kernels switched from all-``Fraction`` to ``int``-first arithmetic, so any
change to a printed coefficient, term order or number format shows up here
as a hash mismatch.

``CORPUS`` extends this to every other command and to the flags that change
a report (``--show-permutation``, ``--min-classes``, ``--basis-cone``, a
``p/q`` order); ``ERRORS`` pins the program's own messages for bad input, and
``OPTIONS`` the option strings each subcommand accepts.
"""

import argparse
import hashlib

import pytest

from toricmirror.cli import build_parser, main

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


# Every other command, plus the flags that change a report: one argv per case,
# split on spaces.  Hashes were recorded before the CLI became table-driven.
CORPUS = {
    "validate --fan p2 --format text":
        "2b757cb70042e03450828c3c2d2fa6ae54454d570f48ff535a614a4bf9db058f",
    "walls --fan p2 --format text":
        "99e4429c4fbf0fd51216ca8a851de0bf588829f96f90af5aa3098562cbc2111b",
    "semifano --fan p2 --format text":
        "ed931972c492877adf06fe7dbcdb0bdc1177a7f6a46584beb9ae7d90184ab879",
    "mirror --fan p2 --order 4 --format text":
        "35ae770d03f3fb92ce928030e554e7640b58aeb6e27ad2c6df670dfdc5556336",
    "inverse-mirror --fan p2 --order 4 --format text":
        "ae8db9dc90247c7daecbeacce4908e156e4e9d7767e9c2db74dade35a62c1ae4",
    "hori-vafa --fan p2 --order 4 --format text --form plain":
        "5419bbcce12de09df51ceff120918d227b569ae32e366f243d6680f99f9ad946",
    "oracle-check --fan p2 --order 4 --format text":
        "b51a9bc7018c05a0456fb3b01ebeabc917c58308dd28bdd1508133291be8bd39",
    "check-all --fan p2 --order 4 --format text":
        "e2c88d70ad20e390093128584c93d3f3a7031dccf1f3169597bd47226cc9429a",
    "validate --fan p2 --format json":
        "e8fbae46acdc29ba2d79f4074b1f3556f379599a009ae913a606fdd7454584fa",
    "walls --fan p2 --format json":
        "2e064c6b4075909272e17c4c0c5e93d86040e98827acc9a0f7432bb5c5f91f88",
    "semifano --fan p2 --format json":
        "9e3450f3e6272b8e4b87cb0b07f7bdfd227a04e51b849926eafb24027c3d6932",
    "mirror --fan p2 --order 4 --format json":
        "28da02059a160c415f722ad26b1ada29de4cbecdeeb34b954c19c535f73c1e65",
    "inverse-mirror --fan p2 --order 4 --format json":
        "35e803070350be344421ea2c4ad01eb447edfba7648f2b21790e00c15298553f",
    "hori-vafa --fan p2 --order 4 --format json --form plain":
        "e09d56381000cfd829d28a4e5804c9e3cd13bca37a0d54b7dccc10a2638ce3ec",
    "oracle-check --fan p2 --order 4 --format json":
        "1b33f5194169946ba1e51fdd38d7a208ac83acc845dbe575196a00afed32094c",
    "check-all --fan p2 --order 4 --format json":
        "e8a008a363381cf9ecffb919888d7514fdf862c11bfb697f4df113f53b0d5a78",
    "seidel-fan --fan p2 --ray 1 --format text":
        "c61a2fd990c1f5bb96ecab09a6a41ef1d9b652a147d146b391a521c3d9d321b1",
    "validate --fan f2 --format text":
        "a4dc31d1d1dd08d536f7751847f8328929f94d2756b8783c6d8147843aa4df66",
    "walls --fan f2 --format text":
        "a17abf58cf3960e6d4def13984add07b77046e97c8ad39e708ec4e76fb13c0a2",
    "semifano --fan f2 --format text":
        "ed931972c492877adf06fe7dbcdb0bdc1177a7f6a46584beb9ae7d90184ab879",
    "mirror --fan f2 --order 8 --format text":
        "ca002c630055d02622b60bcb070adb2c3a28d90bc1d74c18f6ed666c8be1a306",
    "inverse-mirror --fan f2 --order 8 --format text":
        "f460de48c114a62b36e9d53b475110be4d24815ae39e27c5d5207c9af6900e58",
    "hori-vafa --fan f2 --order 8 --format text --form plain":
        "8b7f6679e30919e9f9ac3e319a1deb085f52327e341bf0e14c148f1943aaecf4",
    "oracle-check --fan f2 --order 4 --format text":
        "12f24b79f457507897b6c2ccd001a05b0244ae12c94870d959b13bbdf8c6ea3d",
    "check-all --fan f2 --order 4 --format text":
        "e2c88d70ad20e390093128584c93d3f3a7031dccf1f3169597bd47226cc9429a",
    "validate --fan f2 --format json":
        "fc7052eee021d4aa0f77d89a9fe215d74a326ebdf46093d1067ee65ee115ef19",
    "walls --fan f2 --format json":
        "32e63c29e170d63103a98cba0b21fba8bb4ce4d221767a8a3d5925fe5830c51b",
    "semifano --fan f2 --format json":
        "9e3450f3e6272b8e4b87cb0b07f7bdfd227a04e51b849926eafb24027c3d6932",
    "mirror --fan f2 --order 8 --format json":
        "ea158b3765b7a65fddb336e7a170b870f44c3ad61a4d1e70a9bc4e8a4de59b44",
    "inverse-mirror --fan f2 --order 8 --format json":
        "1710647563a1b88225676dbf6281b93d4dea5c9780887d8a0c132fd512c1d82c",
    "hori-vafa --fan f2 --order 8 --format json --form plain":
        "1d1cc52f6698011def5d61bdbded4267db7d765a1870dfcd44731c566e66ea22",
    "oracle-check --fan f2 --order 4 --format json":
        "0ffdba6ab29c9b0c2120dfd717ee2bd2e63e7f86b55af36301b9ea48193002a2",
    "check-all --fan f2 --order 4 --format json":
        "e8a008a363381cf9ecffb919888d7514fdf862c11bfb697f4df113f53b0d5a78",
    "seidel-fan --fan f2 --ray 1 --format text":
        "bc546fc63f903cb82f7be9d69f78e6b52bb2513081b769865f27d8349d6ce69c",
    "validate --fan chain3 --format text":
        "25b69b696fb479cfccbf7dcba19501b367279c6fc3bd47d1509525209328b5d4",
    "walls --fan chain3 --format text":
        "f1adc4bab70cd52bdb2a3eead891bc719278c2fbd31133d74b3b36d28e0a9fe9",
    "semifano --fan chain3 --format text":
        "ed931972c492877adf06fe7dbcdb0bdc1177a7f6a46584beb9ae7d90184ab879",
    "mirror --fan chain3 --order 4 --format text":
        "c9be0b135b29bf0b43ca3dbbccbe147da4ccdf1e16185d8162b446172551ea23",
    "inverse-mirror --fan chain3 --order 4 --format text":
        "5f38b94f7b3b897722f6e55a80792971c7017969e98ffbf7fc398de5edd81c5d",
    "hori-vafa --fan chain3 --order 4 --format text --form plain":
        "04b7506c5a1bad63424669050ea161ac9287f0a854f95ae91f8aeb99dd4a7240",
    "oracle-check --fan chain3 --order 4 --format text":
        "2bcb9f38b2f35e0e30d2c040884c0198804acdab7321fe5883f49a6eff5ffadc",
    "check-all --fan chain3 --order 4 --format text":
        "e2c88d70ad20e390093128584c93d3f3a7031dccf1f3169597bd47226cc9429a",
    "validate --fan chain3 --format json":
        "4f7de888d711a8e5d1a2142ce25699664cf39916610687a4b07443cb7e32780b",
    "walls --fan chain3 --format json":
        "997e1e61d40ef2c506a4c1d21550360e16f40a7d9c9f363354764813ff5de593",
    "semifano --fan chain3 --format json":
        "9e3450f3e6272b8e4b87cb0b07f7bdfd227a04e51b849926eafb24027c3d6932",
    "mirror --fan chain3 --order 4 --format json":
        "80700ba01e8712b94afe1fd9b112ddad36884e0418f52926fe50739643ff308f",
    "inverse-mirror --fan chain3 --order 4 --format json":
        "bea40099f19018d02ed61969a740d7938080638affaeeae31f703ab7e64c23f3",
    "hori-vafa --fan chain3 --order 4 --format json --form plain":
        "c822724fc3edb79a678c2fd8cfafa08d42863d080298e28e887a44a95632c23d",
    "oracle-check --fan chain3 --order 4 --format json":
        "2263f419e6ab04e2c0d2a02b111495150548a2ddc1361d67ea737b13d6cc82ad",
    "check-all --fan chain3 --order 4 --format json":
        "e8a008a363381cf9ecffb919888d7514fdf862c11bfb697f4df113f53b0d5a78",
    "seidel-fan --fan chain3 --ray 2 --format text":
        "edab428c11e65efedf6ef1980ba10bf32a13fd959c27048875c62d900f321e04",
    "seidel-fan --fan p2 --ray 0 --sign minus --format json --show-permutation":
        "6efefa33e998a29299980b9c1e06fac820842776fa15cc88173eb42e965d8320",
    "validate --fan chain3 --format text --show-permutation":
        "cf745adeda207e1f774948a256ce423f1291d723eec26e52b12bf6c3abb435b6",
    "g --fan f2 --order 8 --format json --ray 1 --show-permutation":
        "cc78e3d9e2f2a2d91656e318db223d5e46e78830b14aefbad138b1cd45e25c0f",
    "potential --fan chain3 --order 4 --format text --show-permutation":
        "0a8a1613b1d5209921c18c497d4ba2aaa952a1891f2a24cbc0979e8680cbfe95",
    "hori-vafa --fan p2 --order 4 --format json --show-permutation --form tilde":
        "87ac4edf26b811690f509ac6f17f9308053f9cbffceb7457c62ea5c79af5b570",
    "check-all --fan f2 --order 4 --format json --show-permutation":
        "9db01430e0d0868602d346267aac8f1309f48e55a0fd5a572a29542ad6a6319f",
    "g --fan f2 --ray 1 --order 1 --min-classes 3 --format text":
        "cdd27fe658d79de0ae925d1b254ab4ad37c8ea24687a26b71bfe1ce7bfe6d536",
    "g --fan f2 --ray 1 --order 1 --min-classes 3 --format json":
        "1a4f1be3c384b7f5467fb7f80ecc21f58726583633e044c4fbde4ad0718bd133",
    "gij --fan f2 --i 1 --j 2 --order 1 --min-classes 2 --format json":
        "7c173c0c1308c19111661462ed0c1dd9ca24b33dd05f0e3c7252de46b80b1c7f",
    "delta --fan chain3 --ray 2 --order 1 --min-classes 4 --format json":
        "1b56da9b1b9c61667fd8ce32631cf44eddb831c17998516aa2a16476a555081b",
    "validate --fan chain3 --basis-cone 4,5 --format json --show-permutation":
        "ebad086305e685120383fbfd2f1c1732c7abe77bc90a68844e0bebb387d4e05f",
    "walls --fan chain3 --basis-cone 4,5 --format text --show-permutation":
        "1f34510d33b7052c568635bdd45639eea08acd20490e630ecafaa093d5cacaee",
    "mirror --fan chain3 --basis-cone 4,5 --format json --show-permutation --order 4":
        "8ba608fb860eb72955bfab43fefd14140040befe4562344daecccecd17bb179a",
    "delta --fan chain3 --basis-cone 4,5 --format text --show-permutation --order 4 --ray 1":
        "16299556d36bb554cb5b30546eb468d5cf797d76661882b7dd2cab97d86dcf86",
    "check-all --fan chain3 --basis-cone 4,5 --format text --show-permutation --order 4":
        "51dbe990a3d78aad54648015920650533a98641dbe9009c05b4fe718e7f898f3",
    # every ray-indexed report under a basis cone that moves the rays; these
    # were recorded while the engine still kept a basis-cone-first ray order
    "potential --fan chain3 --basis-cone 4,5 --order 4 --format json":
        "935ca6761564b66b0a4e394c9eb33e4ae1efeea9178b022d21e93502726a6ee6",
    "hori-vafa --fan chain3 --basis-cone 4,5 --order 4 --format json --form tilde":
        "14056ec915802ceb5e40c7499c9fda1157f2a3db7c414da2945fee75fcca9b2c",
    "batyrev --fan chain3 --basis-cone 4,5 --order 4 --format json --ray 2":
        "61e929815f891ab86e53f8d550908fcc60436bbdb471cd38f349d06819cf0d97",
    "seidel-element --fan chain3 --basis-cone 4,5 --order 4 --format json --ray 2":
        "d9394bd12eb721a356b18123bc4aaa8166ed7ca4f3911bf9c5ec6e63a4798d9e",
    "gij --fan chain3 --basis-cone 4,5 --order 4 --format json --i 2 --j 3":
        "978d6d3ff1d063396ede9ed20b310532d34f1603a5343881bd59ea26e271b046",
    "gw --fan chain3 --basis-cone 4,5 --order 4 --format json --ray 2":
        "610641675698a902940ac298414f427aa5e1e81d090f698bf84fe62bedb97e01",
    "delta --fan chain3 --ray 2 --order 3/2 --format json":
        "1569bafff1d8b253726bb529ba59feb6efd58f799756193aa6d962f9a0159a36",
    "g --fan f2 --ray 1 --order 7/2 --format text":
        "cdd27fe658d79de0ae925d1b254ab4ad37c8ea24687a26b71bfe1ce7bfe6d536",
    "potential --fan f2 --order 5/2 --format json":
        "b5f738d07f177ffaeff9fbd731cb241f29c88e647f5f130eb4112ba6df8a0182",
    # deep orders: chain3's delta stabilises, so these print the same bytes
    # as ("chain3", "delta", "text") at order 4
    "delta --fan chain3 --ray 2 --order 14":
        "6fca07bce55b396e0d765e9b50b2facf860021040ba366b1201fd5a02a89b661",
    "delta --fan chain3 --ray 2 --order 16":
        "6fca07bce55b396e0d765e9b50b2facf860021040ba366b1201fd5a02a89b661",
    "delta --fan chain3 --ray 2 --order 20":
        "6fca07bce55b396e0d765e9b50b2facf860021040ba366b1201fd5a02a89b661",
}


@pytest.mark.parametrize("line", sorted(CORPUS))
def test_corpus_hash(capsys, line):
    code = main(line.split())
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == CORPUS[line]


# f2's Seidel 3-fold of ray 1 "plus": its first cone is [2, 3, 0], so the
# basis cone is rays 0, 2, 3 and the curve classes sit on rays 1, 4, 5.
SEIDEL_POTENTIALS = {
    "potential": "c80a45cd6272c6148f5b6c4a83de5acdcde62f68a69a6edcb779cdc208730ea3",
    "hori-vafa --form tilde":
        "869756fd53a4bb8a877a006cb470f60683e4ec1828ae86e978b1e8926b5b3401",
}


@pytest.mark.parametrize("command", sorted(SEIDEL_POTENTIALS))
def test_seidel_threefold_potential_hash(capsys, tmp_path, command):
    assert main(["seidel-fan", "--fan", "f2", "--ray", "1"]) == 0
    fan = tmp_path / "seidel.json"
    fan.write_text(capsys.readouterr().out)
    code = main([*command.split(), "--fan", str(fan), "--order", "4", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == SEIDEL_POTENTIALS[command]


# The program's own messages on stderr for bad input; exit status 1.
ERRORS = {
    "delta --fan chain3 --ray 99 --order 4": "ray index 99 out of range 0..7",
    "gij --fan chain3 --i 1 --j 8 --order 4": "ray index 8 out of range 0..7",
    "gij --fan chain3 --i -1 --j 2 --order 4": "ray index -1 out of range 0..7",
    "seidel-fan --fan p2 --ray 3": "ray index 3 out of range 0..2",
    "validate --fan missing-fan": "fan file not found: missing-fan",
    "potential --fan nowhere/missing.json":
        "fan file not found: nowhere/missing.json",
    "validate --fan chain3 --basis-cone 0,2":
        "basis cone is not a maximal cone of the fan",
    "delta --fan chain3 --basis-cone 0,2 --ray 1":
        "basis cone is not a maximal cone of the fan",
    "validate --fan chain3 --basis-cone 4,5,5":
        "basis cone is not a maximal cone of the fan",
    "validate --fan p2 --basis-cone 0,1,1":
        "basis cone is not a maximal cone of the fan",
    "delta --fan f2 --ray 1 --min-classes -3":
        "argument --min-classes: count must be at least 1",
    "delta --fan f2 --ray 1 --min-classes 0":
        "argument --min-classes: count must be at least 1",
    "g --fan f2 --ray 1 --min-classes 2.5": "argument --min-classes: invalid count '2.5'",
}


@pytest.mark.parametrize("line", sorted(ERRORS))
def test_error_message(capsys, line):
    code = main(line.split())
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {ERRORS[line]}\n"


def test_non_semifano_message(capsys, tmp_path):
    f3 = tmp_path / "f3.json"
    f3.write_text('{"dim": 2, "rays": [[1, 0], [0, 1], [-1, 3], [0, -1]], '
                  '"max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}')
    assert main(["g", "--fan", str(f3), "--ray", "1"]) == 1
    assert capsys.readouterr().err == ("error: fan is not semi-Fano: wall [1] has "
                                       "curve class with c1 = -1 < 0\n")


COMMON = {"-h", "--help", "--fan", "--format", "--basis-cone", "--show-permutation"}
SERIES = COMMON | {"--order"}
OPTIONS = {
    "validate": COMMON,
    "walls": COMMON,
    "semifano": COMMON,
    "g": SERIES | {"--ray", "--min-classes"},
    "gij": SERIES | {"--i", "--j", "--min-classes"},
    "mirror": SERIES,
    "inverse-mirror": SERIES,
    "delta": SERIES | {"--ray", "--min-classes"},
    "gw": SERIES | {"--ray"},
    "potential": SERIES,
    "hori-vafa": SERIES | {"--form"},
    "batyrev": SERIES | {"--ray"},
    "seidel-element": SERIES | {"--ray"},
    "seidel-fan": COMMON | {"--ray", "--sign"},
    "oracle-check": SERIES,
    "check-all": SERIES,
}


def test_option_strings():
    parser = build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(OPTIONS)
    for name, command in sub.choices.items():
        got = {s for action in command._actions for s in action.option_strings}
        assert got == OPTIONS[name], name
