"""A corrupt elision manifest is a typed error: ``ElisionManifest.load``
and ``from_dict`` raise ValueError naming the bad field — never
KeyError, TypeError or AttributeError from deep inside the parser."""

import json

import pytest

from repro.analysis.static.elision import (
    PROOF_IN_DOMAIN,
    ElisionManifest,
    StoreProof,
)

GOOD = ElisionManifest(
    module="logger", domain=0, start=0x2000, end=0x2040,
    checksum=0x1234abcd,
    sites=[StoreProof(0x2004, "st_x", PROOF_IN_DOMAIN, 0x0500, 0x0500,
                      rule="sd-span-d0")]).to_dict()


def _without(name):
    doc = dict(GOOD)
    del doc[name]
    return doc


def _with(**fields):
    return dict(GOOD, **fields)


def _site(**fields):
    return _with(sites=[dict(GOOD["sites"][0], **fields)])


CASES = {
    "list-document": ([1, 2], "object"),
    "string-document": ("manifest", "object"),
    "no-module": (_without("module"), "'module'"),
    "no-start": (_without("start"), "'start'"),
    "no-crc": (_without("image_crc32"), "'image_crc32'"),
    "no-schema": (_without("schema"), "schema"),
    "string-start": (_with(start="0x2000"), "'start'"),
    "null-domain": (_with(domain=None), "'domain'"),
    "float-end": (_with(end=64.5), "'end'"),
    "bool-crc": (_with(image_crc32=True), "'image_crc32'"),
    "int-module": (_with(module=7), "'module'"),
    "string-sites": (_with(sites="none"), "'sites'"),
    "object-sites": (_with(sites={"pc": 1}), "'sites'"),
    "int-site": (_with(sites=[1]), r"sites\[0\] must be an object"),
    "null-site": (_with(sites=[None]), r"sites\[0\] must be an object"),
    "string-site-pc": (_site(pc="4"), "'pc'"),
    "short-interval": (_site(interval=[1]), "'interval'"),
    "no-site-pc": (_with(sites=[{"key": "st_x", "kind": PROOF_IN_DOMAIN}]),
                   r"sites\[0\]: missing field 'pc'"),
}


@pytest.mark.parametrize("doc,field", CASES.values(), ids=CASES.keys())
def test_corrupt_manifest_is_a_value_error_naming_the_field(doc, field):
    with pytest.raises(ValueError, match=field):
        ElisionManifest.from_dict(doc)


@pytest.mark.parametrize("text", [
    json.dumps(GOOD)[:40], "", "{", "not json"],
    ids=["truncated", "empty", "open-brace", "text"])
def test_unreadable_manifest_file_is_a_value_error(text, tmp_path):
    path = tmp_path / "m.manifest.json"
    path.write_text(text)
    with pytest.raises(ValueError):
        ElisionManifest.load(str(path))


def test_good_manifest_round_trips(tmp_path):
    path = tmp_path / "m.manifest.json"
    ElisionManifest.from_dict(GOOD).write(str(path))
    assert ElisionManifest.load(str(path)).to_dict() == GOOD
