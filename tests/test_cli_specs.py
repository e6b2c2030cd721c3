"""The CLI builds the same experiments as before it routed every task
through the service codec, and declares the same options.

The cache keys below were captured from the CLI that built each
``ExperimentConfig`` by hand.  Equal keys mean existing result caches,
ledgers and state fingerprints stay valid.
"""

import argparse
import cProfile

import pytest

import repro.cli as cli
from repro.core.runner import ExperimentRunner, ExperimentTask
from repro.serve.codec import spec_to_task

#: (argv, cache keys of the tasks it builds, in order).  ``bisect`` builds
#: run A and run B; ``compare`` builds Figure 6's 12 cells.
GOLDEN_KEYS = [
    ("alloc",
     ["da47421c0b69bd9e1185811fbee278940967abc3bda3aa04419b436746189f14"]),
    ("alloc --policy restricted --workload TS --scale 0.05 --seed 7",
     ["4179e52af14a8f24d251382247994b6d48d621a4d1f2cbc9eb7a0a73fc459779"]),
    ("alloc --policy extent --workload SC --extent-ranges 2",
     ["978b2011fba3dcf481ee32c45587d3986042100653ea402e287e10e3c6c497e9"]),
    ("alloc --policy fixed --workload TP",
     ["e77ac31aa75a55f7c1f96847f98e4757caaa4b6fa171da80d3ae057e798506ad"]),
    ("perf --policy buddy --workload TS",
     ["300604a8e7ce30b3f7dd0cf1c4bc02cbae1accbccb3f89769875f68757243af7"]),
    ("perf --policy buddy --workload TP",
     ["04d37c37a6990474c54ab08fdd56e8fac45bd752e21c87eff531eeecc1d34f6a"]),
    ("perf --policy buddy --workload SC",
     ["e3b2384b381e2e269e433d02292ac098456ddcc9fe267131c21a77c3b6348727"]),
    ("perf --policy restricted --workload TS",
     ["b469291b273bc0e3b17d68422f4e19f848c7f80fb2d10ac8e2840ed939007f80"]),
    ("perf --policy restricted --workload TP",
     ["42bab01dfd19dd7307e32823aedc5673d340809caab32157344ff53f1524b68a"]),
    ("perf --policy restricted --workload SC",
     ["e2ca2a7f57ec7087c876fdc03921731182ca59305203b9ca66c6e7f7b99a900f"]),
    ("perf --policy extent --workload TS",
     ["49ada4be11c888b1e96692b59f7ab5acc380a4d624843ba3e1ae7123e5137173"]),
    ("perf --policy extent --workload TP",
     ["c97fe140ffab014ada9cd83d1d74452161fa0e5585b6f9fbd91ee3ba55e062a1"]),
    ("perf --policy extent --workload SC",
     ["7117f276acdd96117741218e97a92b92b941ddfdb90da191b689f7c0a47d0063"]),
    ("perf --policy fixed --workload TS",
     ["4744dbd44e0268c6795bcbb1df2ca0f654a67cffc633657995e92d3a463924eb"]),
    ("perf --policy fixed --workload TP",
     ["1e866e2c5ef920b18bb129e1e04877df051d2cca09861f8120e9c800c46c8fd7"]),
    ("perf --policy fixed --workload SC",
     ["bef3b70b3ef781da5b80c593b14a1b138ae6130c64868a660bf238e40d983fc1"]),
    ("perf --policy lfs --workload TS",
     ["88542f9fe9f2e1d72b2d3972b325558fda555254773ffd535194f6b4c4551efc"]),
    ("perf --policy lfs --workload TP",
     ["4aa18a165cd3fe64c39d6520bc3014b77c0db5dd31fccbabc70aa4f9cd24a6ab"]),
    ("perf --policy lfs --workload SC",
     ["20910ef1b433382663b68384020fd7ebf5b32268c4aaff667741d321f9489bc9"]),
    ("perf --audit",
     ["7aa1755e9d6421577b72ed9e65d648e6c65fd9fba30c2988307f9a85469aceaf"]),
    ("perf --organization raid5 --inject fail:drive=0,at=15000,repair=40000",
     ["b8a1c46308c1e9e17e839761ad87bb2edc82ae40f9f2df6c61a2df27a1feba63"]),
    ("perf --policy extent --workload TS --extent-ranges 2",
     ["fede1d54f7537b23d222073c758c12f59b4a798716b07fb71f92b59a15ae1480"]),
    ("perf --policy extent --workload TP --fit best --extent-ranges 5",
     ["e386d2cc50cc82365efb046cf37fda0f9166e965d21f5ef71a4dd4dd71dcaf20"]),
    ("perf --policy restricted --unclustered --grow-factor 2",
     ["88f00a4c58af5438de86e6704a9770d39cda7bcd3506dbf726ec1d0c139ce059"]),
    ("perf --scale 0.02 --cap-ms 1500 --seed 3",
     ["255f76559fb995e70b5462e04a583719f20c5765a32df627f93ce516f3bdb5c2"]),
    ("faults",
     ["b8a1c46308c1e9e17e839761ad87bb2edc82ae40f9f2df6c61a2df27a1feba63"]),
    ("faults --organization mirrored --inject slow:drive=0,at=0,factor=2",
     ["0a2d4257054dae63d41b2b282f251817ec2ef58375715e5e6f49b6b0aab1e648"]),
    ("trace",
     ["2b2676ec2fd097e49159aac6c171833bc9988fde5931adaf13f5a5f4a4e2ce17"]),
    ("trace --metrics --organization raid5 --inject transient:rate=0.001",
     ["e00b10d14b83d6076414afdc3885f9162e8f37b54c954301f2e9498a8546ff08"]),
    ("profile",
     ["e70fde6c57688a82eb52791ea54b2e3b9ad1de900321e674421e940bdea2ce1d"]),
    ("profile --policy fixed --workload TS --cap-ms 4000",
     ["b6bf2591b32ab5d33f2b493e95006dd57e37df94f01ad018902ad7e3304e953a"]),
    ("bisect", [
      "42e9f851ad3f2bcc9174abbfd260a3afaef55b559ac25bf5d5f5aa778a8d33ad",
      "42e9f851ad3f2bcc9174abbfd260a3afaef55b559ac25bf5d5f5aa778a8d33ad",
    ]),
    ("bisect --vary seed --seed 5 --seed-b 9 --policy buddy", [
      "809009127c37c8cab17f8339b95f3425196b5af90ad463b4c4e0e214ca981034",
      "3bff86243eec2a98cb8b011716b8dbefa366566428fae8b506f46126ac89771b",
    ]),
    ("bisect --vary seed --organization mirrored", [
      "cfd327d64028f7273e58280d09f3677143ec3178ec4ef1a6b567d3f01df6a993",
      "f010f4107eeca9c6d206ff7337dfcfef29c53466547d7f3c6877af40a71f4ca6",
    ]),
    ("submit",
     ["e2ca2a7f57ec7087c876fdc03921731182ca59305203b9ca66c6e7f7b99a900f"]),
    ("submit --kind alloc --policy extent --workload TS",
     ["de77435cd0bd398cdbb9e48d34fad068fe41475d0a9a5c2efa44c36d2f2ec472"]),
    ("submit --fingerprints --policy fixed --workload TP",
     ["0f1e4f2b87848e28292716605e9982418933f4ab0e511166ebc55237f327d1ed"]),
    ("submit --inject fail:drive=1,at=5000 --organization raid5",
     ["40718a605f82442d71cea05436ba4a8184909c1f2f39f64bb1dd31426170c2de"]),
    ("compare", [
      "c7397a262cdb0d9d32503fb8430aa8e3f531a71697183ac3332618c890e531b8",
      "6125b627c33db13f011aaa169746e29ede5d70436e7d79016fad2312ca00e6d6",
      "f629dbabc0a4190ce6c88f7908286c29eebe9b53adadc476150fa2779f39981d",
      "8671028dadfdc89f514f44e1525387d5fb1e113c2e0890607cc76324a93ba33b",
      "9230b88196f671e8fac3152593da18e3e75732e4cf25c87afe592bc9b7214be9",
      "6cadb329e3eb5ac69fa4cfe380790460485433f8f0bcb7c941beeb793a2f1f23",
      "375b2d9ec92d44e2ebf0e024f7f4badccaa8aa81f1b78ff84c83abd2b44028bb",
      "69968d56500521e3ef4393e7d9be03c873fd10f659c77e9e58765e937f0f0ee5",
      "ed4cd86580180e7e7ac371b671960b8912a3b583a75238713898f1c04eb8d58e",
      "c331c4d3c8cf740d4478cf95c66a2b90bfdd69ab74b79bfee316c98176b4bc23",
      "be241d34b0f140dfb6fabc097c154a09a7ecdce14388d6936681879138ed724f",
      "636637845e17a17e0f9746fa00f3484e20860c9577c74c0efe35c084a592d3d5",
    ]),
    ("compare --scale 0.05 --seed 4 --cap-ms 9000", [
      "287b687baef4758a25461647e399d2035946a23e78542e925902ebeebe1b8343",
      "7aa64a5dd9d33ce49ec2acb080d827d20e02967689ba6999e0bce452a860ef33",
      "2d271b765538042fad4a9b3e48b8fe62453e5591339ffebc8e1d6408fc5c0987",
      "04de8f1cf6131a2e2a7cc3b6eadd832f91866dbd5c946ff8df00386ea892fa72",
      "40d1ef40adcb6cc4df6641002f16d41adf9f14675f3650514eec533c9b5b2d67",
      "ed74b7e88d2f0be9d30597ece740fa430b83d419053610cb699fd0567a177c9d",
      "0ba2dc203d4e7ff17fccaadf8d4f647660781cf2ba9887d05b457705ccf62ef0",
      "dac70fb45a61fc977143e9da2533404b6a6241dc94466178b80bcafcc1cf132c",
      "aef2a09acec08beb8c177a2f471f2bb77f8b87a371cc005aad3e582e30231968",
      "ef48285e95f3c44e1d6d6b5c956616b33444ecfe5a4e9c30fb095cdbf40fe72d",
      "104ed8c382d123df6d6f9a90ce2e574be553ce7aa88b444f05873c7436be47a6",
      "453bf24c046619f8aa9cc1f66ffb1e7dbd59d96c31fd358cc7281d0382c39ef0",
    ]),
]


class Captured(Exception):
    """Raised by the stubs once a command has built its tasks."""


class NullProfiler:
    def enable(self):
        pass

    def disable(self):
        pass


@pytest.fixture
def built_keys(monkeypatch):
    """Run ``main(argv)`` up to the point it would execute; return keys."""
    keys: list[str] = []

    def run(self, tasks):
        keys.extend(task.cache_key for task in tasks)
        raise Captured

    def perf(config, simulator_factory=None, **kwargs):
        keys.append(ExperimentTask.performance(config, **kwargs).cache_key)
        raise Captured

    def replay(config, simulator_factory=None, **kwargs):
        keys.append(ExperimentTask.performance(config, **kwargs).cache_key)

    def bisect(*args, **kwargs):
        raise Captured

    def post(url, body=None, timeout_s=630.0):
        keys.append(spec_to_task(body["spec"]).cache_key)
        raise Captured

    monkeypatch.setattr(ExperimentRunner, "run", run)
    monkeypatch.setattr(cli, "run_performance_experiment", perf)
    monkeypatch.setattr(cli, "performance_replay", replay)
    monkeypatch.setattr(cli, "bisect_divergence", bisect)
    monkeypatch.setattr(cli, "_http_json", post)
    monkeypatch.setattr(cProfile, "Profile", NullProfiler)

    def build(argv: str) -> list[str]:
        keys.clear()
        with pytest.raises(Captured):
            cli.main(argv.split())
        return list(keys)

    return build


def test_golden_table_covers_every_experiment_subcommand():
    commands = {argv.split()[0] for argv, _ in GOLDEN_KEYS}
    assert commands == {
        "alloc", "perf", "faults", "trace", "profile", "bisect", "submit",
        "compare",
    }
    assert len(GOLDEN_KEYS) >= 12


@pytest.mark.parametrize(
    "argv, keys", GOLDEN_KEYS, ids=[argv for argv, _ in GOLDEN_KEYS]
)
def test_cli_builds_the_same_tasks(built_keys, argv, keys):
    assert built_keys(argv) == keys


SPEC = {"--scale": 0.1, "--seed": 1991}
POLICY = {
    "--policy": "restricted", "--workload": "SC", "--grow-factor": 1,
    "--unclustered": False, "--extent-ranges": 3, "--fit": "first",
}
RUNNER = {
    "--jobs": 1, "--cache-dir": None, "--no-cache": False,
    "--timeout": None, "--retries": 0, "--live": False,
}
NO_FAULTS = {"--organization": "striped", "--inject": None}

#: Every subcommand's option strings and defaults; routing the flags
#: through the codec changed none of them.
EXPECTED_OPTIONS = {
    "alloc": {**SPEC, **POLICY, **RUNNER},
    "perf": {
        **SPEC, **POLICY, **RUNNER, **NO_FAULTS,
        "--cap-ms": 60_000.0, "--audit": False,
    },
    "bisect": {
        **SPEC, **POLICY, "--cap-ms": 8_000.0, "--organization": "striped",
        "--vary": "engine", "--seed-b": None, "--cadence": 10_000,
        "--fine-limit": 1_024,
    },
    "faults": {
        **SPEC, **POLICY, **RUNNER, "--cap-ms": 60_000.0,
        "--organization": "raid5",
        "--inject": "fail:drive=0,at=15000,repair=40000",
    },
    "compare": {**SPEC, **RUNNER, "--cap-ms": 40_000.0},
    "profile": {
        **SPEC, **POLICY, "--cap-ms": 20_000.0, "--sort": "tottime",
        "--limit": 12, "--json": False,
    },
    "trace": {
        **SPEC, **POLICY, **RUNNER, **NO_FAULTS, "--cap-ms": 8_000.0,
        "--trace-out": None, "--format": "chrome", "--metrics": False,
        "--json": False,
    },
    "serve": {
        "--state-dir": None, "--host": "127.0.0.1", "--port": 8765,
        "--workers": 2, "--max-queue": 32, "--timeout": None,
        "--retries": 1, "--jitter-seed": 0, "--chaos": False,
        "--verbose": False,
    },
    "submit": {
        **SPEC, **POLICY, **NO_FAULTS, "--url": "http://127.0.0.1:8765",
        "--kind": "perf", "--cap-ms": 60_000.0, "--fingerprints": False,
        "--spec": None, "--priority": "normal", "--wait": None,
        "--follow": False,
    },
    "table1": {},
}


def subcommand_options() -> dict[str, dict[str, object]]:
    parser = cli.build_parser()
    [sub] = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: {
            ",".join(action.option_strings): action.default
            for action in subparser._actions
            if action.option_strings and action.dest != "help"
        }
        for name, subparser in sub.choices.items()
    }


def test_no_option_or_default_changed():
    assert subcommand_options() == EXPECTED_OPTIONS


def test_spec_flags_are_declared_once_and_checked_by_the_codec():
    source = open(cli.__file__).read()
    for flag in ("--organization", "--inject", "--cap-ms", "--policy"):
        assert source.count(f'"{flag}"') == 1, flag
    parser = cli.build_parser()
    [sub] = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    for subparser in sub.choices.values():
        for action in subparser._actions:
            if action.dest in (
                "policy", "workload", "organization", "fit", "extent_ranges"
            ):
                assert action.choices is None, action.dest
