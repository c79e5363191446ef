"""Byte-identity gate for replay: pinned SHA-256 digests of the trace
JSON and of the CLI stdout, for both variants on small inputs, on
chain(3,32) and chain(4,16), whose 31 and 15 matching edges give many
target components and contraction pairs, and on chain(3,160), whose
2240 vertices lie above `graph._LIST_LIMIT`, so that its capped searches
keep their distances in a dict.  Two stars of Heawood blocks (56 and 70
vertices) have a bridge tree that is not a path and a port with two
bridges, and a relabelled chain(3,16) lists its bridges in random label
order.

A change that is meant to keep replay's outputs identical must leave
every digest here as it is.  The CLI's `--trace` file must hold the
pinned trace JSON plus a newline, so every pin, maxdeg traces with
their floats and nulls included, also holds the CLI's trace writer to
`json.dumps(doc, indent=2)` byte for byte.  Record new digests only for
a change that alters the trace format or a check on purpose, and say so.
"""

import hashlib
import json
import random

import pytest

from avec import cli
from avec.generators import ChainSpec, chain, reiman
from avec.io import format_edgelist
from avec.replay import replay, trace_json
from util import shuffle_labels, star_of_blocks

INPUTS = {
    "reiman2": lambda: reiman(2).graph,
    "reiman3": lambda: reiman(3).graph,
    "chain3_2": lambda: chain(ChainSpec(3, 2)).graph,
    "chain3_4": lambda: chain(ChainSpec(3, 4)).graph,
    "chain3_6": lambda: chain(ChainSpec(3, 6)).graph,
    "chain3_10": lambda: chain(ChainSpec(3, 10)).graph,
    "chain3_32": lambda: chain(ChainSpec(3, 32)).graph,
    "chain3_160": lambda: chain(ChainSpec(3, 160)).graph,
    "chain4_2": lambda: chain(ChainSpec(4, 2)).graph,
    "chain4_16": lambda: chain(ChainSpec(4, 16)).graph,
    "chain5_2": lambda: chain(ChainSpec(5, 2)).graph,
    "reiman4_chain3_2": lambda: chain(ChainSpec(3, 2, reiman(4))).graph,
    "reiman4_chain3_4": lambda: chain(ChainSpec(3, 4, reiman(4))).graph,
    "star56": lambda: star_of_blocks(3),
    "star70": lambda: star_of_blocks(4),
    "shuffled_chain3_16": lambda: shuffle_labels(
        chain(ChainSpec(3, 16)).graph, random.Random(16)
    ),
}

#: (input, variant) -> (sha256 of the trace JSON, sha256 of CLI stdout)
DIGESTS = {
    ("chain3_10", "girth6"): (
        "afd8376ba7a9114c01420ef295cfda4ad2c6bf8d6b6e008fbc74ceb9ede14f55",
        "0756caeb59571dacb7c88036db86b332f28aa669dd61c8ce7a28bb6498331448",
    ),
    ("chain3_10", "maxdeg"): (
        "5c7ba435d6f7d0573f9e1b1c76933ae840782da1a76ded8335c1f345e6344ea1",
        "287e7591902000abc2b1f4f0973a787cadd17e63e0b751dd0236240e0805041e",
    ),
    ("chain3_32", "girth6"): (
        "6ffcc209b18b342f9002a94b2abc297417db118ac5bf8d796dc61f4e4f4c4050",
        "3399e15b4d28006971a3ae2eed56a8ed6f1ed33afd656079531d67a4370b12b2",
    ),
    ("chain3_32", "maxdeg"): (
        "e147d65dba60135b62a8ad8416dad12287b119d0c6e8522fc5cf559baae91d42",
        "f8880868c3591b8308270e37ad2dda4808a816a9f2a4fcecff392f5da4f4c51f",
    ),
    ("chain3_160", "girth6"): (
        "b53810c0e33591a42766766541955bb079648678d9a2762d0186f1399a7fde6c",
        "89e6a2350e117924b9ab0cb988465269407cf9b75cfd2b09cf1c80fd7adf8e02",
    ),
    ("chain3_160", "maxdeg"): (
        "b93c463be645fb975f50d18c6d7aa953b24136d0cdf89069626010312d4ed212",
        "f8e7ef9b8dde9ea0a94cf0e6f57e3d08a2d9d234690b8f444aa707ab0c783bb8",
    ),
    ("chain4_16", "girth6"): (
        "d6795ae750e32942cf0c682041b50d2b8ee1b4f2806828cebc2186e3b27fecdc",
        "ba7b684ecd4273b4614774d5be88eaa7953a5467b54d15815d2779d8011f6267",
    ),
    ("chain4_16", "maxdeg"): (
        "eba9fdc835c811bb83ad111d852a7671f8fcba91b57e40464a258074fa58cf0b",
        "60110b80905e114667df9963e1d1e9fefa6379f3762636e2c4a4a7e7b3102857",
    ),
    ("chain3_2", "girth6"): (
        "81b29b3dfddec2eba1bb10dd05fcd93d4be45b2988e13399a6db3067b6a694f4",
        "26e59ebd8a20d71e946c0cbf23a542d7b0f08c54ae02fe7f5d88aaa948585f50",
    ),
    ("chain3_2", "maxdeg"): (
        "52fbb5b9bc17204766c1387ea95737d642e46d0aadb60bda9954a3dba161d2d7",
        "31225efd3cf19b9c2f16f3b35ad961281e8bdcc79265bf89217768c40d7d9261",
    ),
    ("chain3_4", "girth6"): (
        "3142d5bb9fe17433c4f3dfea323a202a6060a825e220ebd16de69998ef0ffebf",
        "4dab8888034637b4489904ac78f2c163b74ca6b6714dbce08213c6493e018e71",
    ),
    ("chain3_4", "maxdeg"): (
        "09ef7e7b1773fbd56ab52501974e6b1a0c92c710b9bfe8babd7afbad4b65a868",
        "ea01b8467fe68fcf479b6261d483ab12d582dd43e9d98630eb2c9e12f991b52e",
    ),
    ("chain3_6", "girth6"): (
        "830c4c1ac8eb6e313b38a8230ada28c619ff5e8c28066c6a8eea3764717730a3",
        "bddd2b9b1cbc605f87991cca3aa31ef38abecc95334f1a1089e3855b7bcf9ac6",
    ),
    ("chain3_6", "maxdeg"): (
        "48e3768f8f904d78fbeca3e4b5898ec1bdea295e8e1d85acd9a6fd5b835561c8",
        "9cac08443f6030187ee8b9c5d9194f6aad7c106b24d17489661500fb1b898eef",
    ),
    ("chain4_2", "girth6"): (
        "f69b96282a19f436bca6ecfbf4a5e6a981496cd31d7a7eec9ffd0af3b4b0c767",
        "450d47296fc2745d422319f1c15bd5ef037389c420badfc8fdf77b64b2aa6a48",
    ),
    ("chain4_2", "maxdeg"): (
        "36184139aafbc6208b5010dde63d1aa1f3ce03dfd83ed3ae1e3b4accf4e60da0",
        "9d0d2b9bd52a63fbd9cb4cc56a06dd40f259688cb12356986c57688ae9ce9cee",
    ),
    ("chain5_2", "girth6"): (
        "785d767986605beeb68d43c9595a8c247229881e57e996de565db134c71ea571",
        "6373d5a76be614bd3a1fe75e6df5e5b962add27875a5e4ceae14a6c8b209af2d",
    ),
    ("chain5_2", "maxdeg"): (
        "5799486c40f89c1f6877779c2aa0c2e68d06eeb68b8b9d0e89c67a6623fa9ee1",
        "a21fc45a199438e88390283c5e1237e5d07f8e6eae4ec1d45d2735cddd922441",
    ),
    ("reiman2", "girth6"): (
        "751e352092fc079b09351b396245375af25a3a4231bab9716660691a01c7cab3",
        "12205569cd607e67f1ab2ae2af70684c3029f5f770a436c86c4093c491ffe5e9",
    ),
    ("reiman2", "maxdeg"): (
        "e26d9975ee03270d4a899f7b45fa138a7e856b29893fa5aeb5438a0ae0ee3114",
        "27e120136028b218e6593c9f211963551e6f1f34d8a161baa4535331d164269c",
    ),
    ("reiman3", "girth6"): (
        "e53aaccf834eb17cd75b5a0ab3fc582ce10b3980febf3579dab89f1b18782666",
        "f1b783461f0f517854662ce021960b92015125c66a4e44e7c0cc034d9a4a384b",
    ),
    ("reiman3", "maxdeg"): (
        "484210fed165853b7c639e8ac1e23591f571fcdd6b596828d66b22b292b259ee",
        "7abc26c3c994336ad89e4adfb068e7ced1d4ac3d872acb5330fb8be938a2d1fe",
    ),
    ("reiman4_chain3_2", "girth6"): (
        "751b3af76303bcd206da306ed3912cdf89d482c0b67e328eafed956b63e9b4a9",
        "89db24a0e30d269af58f2e6a8d2091e36a991d05f83e017ad4797307096ebcf7",
    ),
    ("reiman4_chain3_2", "maxdeg"): (
        "963738d6d5dd9b21945d4c743e721f8785743d316fba44aea6c08d188e2c0cf6",
        "a556a163ad55fc5af0d0270dd9a3dff3aae741d3e55ad7b58420c518d81011fd",
    ),
    ("reiman4_chain3_4", "girth6"): (
        "9ceb5a8dbcc17812249f0c4049d16cc10d2053bf67a6ba167e545efedd211651",
        "ccf66c46943255550b9008b6f1c2fb1dc559e7dbab4dc18e6ae7de9e6b8136d8",
    ),
    ("reiman4_chain3_4", "maxdeg"): (
        "9bc653ffac2655ffbd56fafc50664f10c7c6b144a3718daf009ea5f8da5f3b92",
        "0e0accb48304687ffa9007b61fd92336ef5de4172a313980b1d2379e5d7269ba",
    ),
    ("shuffled_chain3_16", "girth6"): (
        "fbc3420b4c25fa56208a02a5e9d77dd1ed7a1ff953b889163ee43224fff667a8",
        "52713c31bce155d6755da2352035cf29e7118595cd128c0ce408e6712228d43e",
    ),
    ("shuffled_chain3_16", "maxdeg"): (
        "e7070a977a8af94aea69ec53a10f0a634c98452231494cba6b9f423a94e52b90",
        "4cae0e44bbb0dbc2930b55f895a128692bac90434c561e0a7593164fad8bc63d",
    ),
    ("star56", "girth6"): (
        "6ddac4b97e5cf8f021cf50fd62019a1e72aa10c0acea695dc51ad796511a4733",
        "ea273e8ca424ad5c05317c40f185fb1d09266ac0b62e72d873b79596010dfcd0",
    ),
    ("star56", "maxdeg"): (
        "c9f3ca0152135d6660359497b798637e2fae989c0de4a4b890259cf08684f5ec",
        "59f77b22e253bf9a5713d1dca3138154ea63b2b4e3cfb5b3e1ca34ba0b886dd2",
    ),
    ("star70", "girth6"): (
        "03b1a8570357365dc6d0be870b345e7b7ba7576d24faa216d882f29f598b4636",
        "339f6fbed66e851126931d5f72927f18da2670ee878b294817ee6f3490e4e582",
    ),
    ("star70", "maxdeg"): (
        "5c3acfc838a421e0e9d19d279c1496ffd38e6beda433a94d0fd289269acc08f5",
        "18308c46e466286b95a491e3dad5f1c1c89c8af3258b70257f32044ba4cc722e",
    ),
}


def _sha(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def digests(name, variant, tmp_path, capsys):
    g = INPUTS[name]()
    anchor = None
    if variant == "maxdeg":
        top = g.max_degree()
        anchor = min(v for v in range(g.n) if g.degree(v) == top)
    trace = json.dumps(trace_json(replay(g, variant, anchor)), indent=2)
    path = tmp_path / f"{name}.el"
    path.write_text(format_edgelist(g), encoding="ascii")
    traced = tmp_path / f"{name}.json"
    capsys.readouterr()
    code = cli.main(["replay", str(path), "--variant", variant, "--trace", str(traced)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert traced.read_text(encoding="ascii") == trace + "\n"
    return _sha(trace), _sha(captured.out)


@pytest.mark.parametrize("variant", ["girth6", "maxdeg"])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_replay_outputs_pinned(name, variant, tmp_path, capsys):
    assert digests(name, variant, tmp_path, capsys) == DIGESTS[name, variant]
