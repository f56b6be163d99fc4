"""Tests for repro.dealias.joint."""

import pytest

from repro.dealias import DealiasMode, JointDealiaser, make_dealiaser
from repro.internet import Port


class TestMakeDealiaser:
    def test_none_mode(self, internet):
        dealiaser = make_dealiaser(DealiasMode.NONE, internet)
        assert dealiaser.mode is DealiasMode.NONE
        clean, aliased = dealiaser.partition([123, 456], Port.ICMP)
        assert clean == {123, 456}
        assert aliased == set()

    def test_offline_mode(self, internet):
        dealiaser = make_dealiaser(DealiasMode.OFFLINE, internet)
        assert dealiaser.mode is DealiasMode.OFFLINE
        assert dealiaser.online is None

    def test_online_requires_scanner(self, internet):
        with pytest.raises(ValueError):
            make_dealiaser(DealiasMode.ONLINE, internet)

    def test_joint_requires_scanner(self, internet):
        with pytest.raises(ValueError):
            make_dealiaser(DealiasMode.JOINT, internet)

    def test_joint_mode(self, internet, scanner):
        dealiaser = make_dealiaser(DealiasMode.JOINT, internet, scanner)
        assert dealiaser.mode is DealiasMode.JOINT
        assert dealiaser.offline is not None
        assert dealiaser.online is not None


class TestJointBehaviour:
    def test_joint_catches_more_than_either(self, internet, scanner):
        """Joint dealiasing removes at least as many alias addresses as
        offline or online alone (the RQ1.a conclusion)."""
        samples = []
        for region in internet.regions:
            if region.aliased and region.profile.icmp > 0:
                samples.extend(region.address_of(i) for i in (1, 99, 12345))
        offline = make_dealiaser(DealiasMode.OFFLINE, internet)
        _, off_aliased = offline.partition(samples, Port.ICMP)
        online = make_dealiaser(DealiasMode.ONLINE, internet, scanner)
        _, on_aliased = online.partition(samples, Port.ICMP)
        from repro.scanner import Scanner

        joint = make_dealiaser(DealiasMode.JOINT, internet, Scanner(internet))
        _, joint_aliased = joint.partition(samples, Port.ICMP)
        assert len(joint_aliased) >= len(off_aliased)
        assert len(joint_aliased) >= len(on_aliased)
        assert joint_aliased >= off_aliased

    def test_offline_consulted_before_online(self, internet):
        """Published prefixes must not cost verification packets."""
        from repro.scanner import Scanner

        scanner = Scanner(internet)
        dealiaser = make_dealiaser(DealiasMode.JOINT, internet, scanner)
        published = internet.published_alias_prefixes[0]
        dealiaser.partition([published.value | 7], Port.ICMP)
        assert dealiaser.online is not None
        assert dealiaser.online.verification_probes == 0

    def test_is_aliased_point_query(self, internet, scanner):
        dealiaser = make_dealiaser(DealiasMode.JOINT, internet, scanner)
        published = internet.published_alias_prefixes[0]
        assert dealiaser.is_aliased(published.value | 3, Port.ICMP)

    def test_known_alias_prefixes_union(self, internet, scanner):
        dealiaser = make_dealiaser(DealiasMode.JOINT, internet, scanner)
        unpublished = next(
            prefix
            for prefix in internet.true_alias_prefixes
            if prefix not in set(internet.published_alias_prefixes)
        )
        region = internet.region_of(unpublished.value)
        if region.alias_response_prob >= 1.0 and region.profile.icmp > 0:
            dealiaser.partition([unpublished.value | 9], Port.ICMP)
        known = dealiaser.known_alias_prefixes()
        assert len(known) >= len(internet.published_alias_prefixes)


class TestModeProperty:
    def test_empty_joint_is_none_mode(self):
        assert JointDealiaser().mode is DealiasMode.NONE

    def test_empty_published_list_is_offline_mode(self, internet, scanner):
        from repro.dealias import OfflineDealiaser, OnlineDealiaser

        empty = OfflineDealiaser([])
        assert len(empty) == 0
        assert JointDealiaser(offline=empty).mode is DealiasMode.OFFLINE
        joint = JointDealiaser(offline=empty, online=OnlineDealiaser(scanner))
        assert joint.mode is DealiasMode.JOINT
