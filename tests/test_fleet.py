"""Household fleet construction and the E12 experiment."""

from repro.core import e12_fleet
from repro.firmware.fleet import DEFAULT_HOUSEHOLD, build_household


class TestHousehold:
    def test_default_household_size(self):
        assert len(DEFAULT_HOUSEHOLD) == 6

    def test_blueprint_covers_survey_firmware(self):
        firmware = {member.firmware.name for member in DEFAULT_HOUSEHOLD}
        assert {"tizen-3", "openelec-8", "yocto-pyro", "tizen-4"} <= firmware

    def test_exactly_one_patched_member(self):
        patched = [m for m in DEFAULT_HOUSEHOLD if not m.firmware.ships_vulnerable_connman]
        assert len(patched) == 1

    def test_build_household_wires_ssid(self):
        devices = build_household("CasaDelSol")
        assert len(devices) == len(DEFAULT_HOUSEHOLD)
        for device in devices:
            assert device.station.known_ssids == ["CasaDelSol"]

    def test_unique_names(self):
        names = [member.name for member in DEFAULT_HOUSEHOLD]
        assert len(set(names)) == len(names)


class TestE12:
    def test_experiment_all_ok(self):
        result = e12_fleet()
        assert result.all_pass
        assert len(result.rows) == 6
        assert all(row[4] for row in result.rows)  # everyone roamed

    def test_every_vulnerable_device_rooted(self):
        result = e12_fleet()
        rooted = [row for row in result.rows if row[5] == "ROOT SHELL"]
        assert len(rooted) == 5

    def test_patched_device_survives(self):
        result = e12_fleet()
        patched_rows = [row for row in result.rows if row[2] == "1.35"]
        assert len(patched_rows) == 1
        assert patched_rows[0][5] != "ROOT SHELL"
        assert patched_rows[0][4]  # it still roamed to the rogue AP

    def test_notes_summarize(self):
        assert "5/6 devices rooted" in e12_fleet().notes
