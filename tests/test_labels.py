import copy
import pickle

from entroscope import CHI, SILENT, determinize, label, minimize, short_circuit
from login_fixtures import retry_spec


def test_labels_compare_by_identity():
    assert label("a") is label("a")
    assert label("a") != label("b")
    assert label("a") not in {SILENT, CHI}


def test_pickle_and_copies_return_the_interned_label():
    for lab in (label("a"), SILENT, CHI):
        assert pickle.loads(pickle.dumps(lab)) is lab
        assert copy.deepcopy(lab) is lab
        assert copy.copy(lab) is lab


def test_pickled_automata_round_trip_equal():
    m = minimize(determinize(retry_spec()))
    for d in (m, short_circuit(m)):
        back = pickle.loads(pickle.dumps(d))
        assert back == d
        assert back.rows == d.rows and back.alphabet == d.alphabet
