"""The committed output contract: every run of the corpus of
``contract_digests.py`` still exits, prints and fails as it did when
``contract_digests.json`` was written."""

import json

from contract_digests import PATH, corpus, digest, write_files


def test_contract_digests_are_unchanged(tmp_path, monkeypatch):
    with open(PATH, encoding="utf-8") as handle:
        pinned = json.load(handle)
    runs = {" ".join(argv): argv for argv in corpus()}
    assert list(runs) == list(pinned), "the corpus and the file differ"
    write_files(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    changed = [key for key, argv in runs.items()
               if digest(argv) != pinned[key]]
    assert not changed, "%d of %d runs changed:\n%s" % (
        len(changed), len(runs), "\n".join(changed))
